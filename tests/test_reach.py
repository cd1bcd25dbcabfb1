import importlib.util
from pathlib import Path

from diracmaxwell import fourier

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_a_tiny_run_reaches_its_command_and_no_other(tmp_path, capsys):
    # the CLI part of the tool on one n = 8 config of two steps
    with reach.traced() as codes:
        reach.run_commands([("run-dm", reach._DM)], tmp_path)
    reached = reach.reached_names(codes)
    # a nested def and a cached_property, whose code starts at its decorator, count too
    assert {"cli.main", "cli.cmd_run_dm", "evolve_dm.dm_strang_step", "evolve_dm.potential_kick.kick",
            "fourier.ModeMultipliers.dirac"} <= reached
    assert not reached & {"cli.cmd_run_sp", "cli.cmd_probe", "evolve_dm.picard_solve"}
    assert reach.report(reached) == 1
    out = capsys.readouterr().out
    assert "  cli.cmd_probe (src/diracmaxwell/cli.py:" in out and "): NOT REACHED" in out


def test_calls_on_pool_threads_count(monkeypatch):
    # a pool started inside the block runs its jobs under the profile too
    monkeypatch.setattr(fourier, "_pool", None)
    try:
        with reach.traced() as codes:
            fourier._on_cores(lambda i: fourier.make_lattice(8, 1.0) if i else None, 2)
    finally:
        fourier._pool.shutdown()
    assert "fourier.make_lattice" in reach.reached_names(codes)


def test_every_allowed_entry_names_a_function():
    assert set(reach.ALLOWED) <= set(reach.functions())
