import json

import pytest
from zipperlift import cli

import layers


@pytest.fixture
def traced_cli(monkeypatch):
    """Span wrappers on ``zipperlift.cli``, removed again after the test."""
    for name in layers.CLI_LAYERS:
        monkeypatch.setattr(cli, name, getattr(cli, name))
    tracer = layers.Tracer()
    layers.install_spans(tracer)
    return tracer


def test_traced_command_runs_the_cli(traced_cli, tmp_path, capsys):
    argv = ["render", "--example1", "p=0.3", "--depth", "4", "--svg", str(tmp_path / "a.svg"),
            "--csv", str(tmp_path / "a.csv")]
    text, code = layers.run_cli(argv, traced_cli)
    assert code == 0
    assert text == f"wrote {tmp_path / 'a.svg'} {tmp_path / 'a.csv'}\n"
    spans = {record["name"]: record for record in traced_cli.spans}
    assert spans["command"]["parent"] is None
    for name in ("families.build", "geometry.norms", "zipper.product", "attractor.refine",
                 "config_io.export_svg", "config_io.export_csv"):
        assert spans[name]["parent"] == spans["command"]["id"]
    assert spans["attractor.refine"]["fields"]["points"] == 2 ** 5 + 1
    assert spans["config_io.export_csv"]["fields"]["bytes"] == (tmp_path / "a.csv").stat().st_size


def test_every_verification_check_gets_a_span(traced_cli):
    text, code = layers.run_cli(["verify", "--example1", "p=0.3"] + layers.PROBE_VERIFY,
                                traced_cli)
    assert len(json.loads(text)) == len(layers.VERIFICATION_CHECKS)
    names = {record["name"] for record in traced_cli.spans}
    assert {f"verification.{check}" for check in layers.VERIFICATION_CHECKS} <= names
