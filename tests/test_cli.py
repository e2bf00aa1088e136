"""Tests for the experiments CLI (repro.experiments.__main__)."""

import pytest

from repro.experiments.__main__ import COMMANDS, main


def test_every_documented_command_exists():
    expected = {"table2", "fig4", "fig5", "fig6", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "popular-breakdown",
                "pred", "ablations", "density", "sweeps", "validate"}
    assert expected <= set(COMMANDS)


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_quick_flag_parses():
    # `pred` is the fastest command; run it end to end.
    assert main(["pred", "--quick"]) == 0


def test_table2_quick_prints_paper_references(capsys):
    main(["table2", "--quick"])
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "(2.38)" in out  # paper reference value printed beside measured
    assert "vSoC" in out and "QEMU-KVM" in out


def test_package_metadata():
    import repro

    assert repro.__version__
    assert "SOSP 2024" in repro.__paper__


# ---------------------------------------------------------------------------
# chaos reproducer lines
# ---------------------------------------------------------------------------

def test_chaos_fault_class_filter(capsys):
    rc = main(["chaos", "--quick", "--fault-class", "device-stall"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "device-stall" in captured
    assert "bus-flap" not in captured  # filtered out
    with pytest.raises(ValueError, match="unknown fault class"):
        main(["chaos", "--quick", "--fault-class", "nope"])


def test_chaos_failure_prints_seeded_reproducer(capsys, monkeypatch):
    import repro.experiments.chaos as chaos_mod
    from repro.experiments.__main__ import cmd_chaos

    real = chaos_mod.run_fault_classes

    def sabotaged(**kwargs):
        results = real(**kwargs)
        broken = dict(results)
        label = "device-stall"
        broken[label] = chaos_mod.ChaosResult(
            emulator="vSoC", seed=kwargs.get("seed", 0),
            duration_ms=results[label].duration_ms,
            fps=0.0, steady_fps=0.0,
            steady_after_ms=results[label].steady_after_ms,
            presented=0, degrades=0, restores=0, time_degraded_ms=0.0,
        )
        return broken

    monkeypatch.setattr(chaos_mod, "run_fault_classes", sabotaged)
    rc = cmd_chaos(quick=True, seed=7, fault_class="device-stall")
    captured = capsys.readouterr().out
    assert rc == 1
    assert "FAIL device-stall" in captured
    assert ("REPRODUCE: python -m repro.experiments chaos "
            "--seed 7 --fault-class device-stall --quick") in captured
