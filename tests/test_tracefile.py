"""JSON trace interchange (repro.sim.tracefile)."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.core.access import AccessKind, DataClass
from repro.sim import tracefile

_MINIMAL = {
    "name": "t",
    "phases": [
        {
            "name": "p0",
            "compute_cycles": 100,
            "accesses": [
                {"address": 0, "size": 4096, "kind": "read", "class": "feature"},
                {"address": 4096, "size": 4096, "kind": "write"},
            ],
        }
    ],
}


class TestParsing:
    def test_minimal_document(self):
        trace = tracefile.loads(json.dumps(_MINIMAL))
        assert trace.name == "t"
        assert len(trace.phases) == 1
        assert trace.phases[0].accesses[0].data_class is DataClass.FEATURE
        assert trace.phases[0].accesses[1].kind is AccessKind.WRITE

    def test_defaults(self):
        trace = tracefile.loads(json.dumps(_MINIMAL))
        access = trace.phases[0].accesses[1]
        assert access.data_class is DataClass.BULK
        assert access.sequential
        assert access.vn is None
        assert trace.dram_channels == 4

    def test_gather_fields(self):
        doc = json.loads(json.dumps(_MINIMAL))
        doc["phases"][0]["accesses"][0].update(
            sequential=False, burst_bytes=512, spread_bytes=1 << 30
        )
        trace = tracefile.loads(json.dumps(doc))
        access = trace.phases[0].accesses[0]
        assert not access.sequential
        assert access.burst_bytes == 512

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            tracefile.loads("{not json")

    def test_missing_phases(self):
        with pytest.raises(ConfigError):
            tracefile.loads(json.dumps({"name": "x"}))

    def test_empty_phases(self):
        with pytest.raises(ConfigError):
            tracefile.loads(json.dumps({"phases": []}))

    def test_bad_kind(self):
        doc = json.loads(json.dumps(_MINIMAL))
        doc["phases"][0]["accesses"][0]["kind"] = "modify"
        with pytest.raises(ConfigError):
            tracefile.loads(json.dumps(doc))

    def test_bad_class(self):
        doc = json.loads(json.dumps(_MINIMAL))
        doc["phases"][0]["accesses"][0]["class"] = "tensor"
        with pytest.raises(ConfigError):
            tracefile.loads(json.dumps(doc))


def _with(access: dict | None = None, phase: dict | None = None,
          **top) -> dict:
    """A one-phase, one-access document with the given fields overridden
    (``None`` values delete the field)."""
    doc = json.loads(json.dumps(_MINIMAL))
    doc["phases"] = [doc["phases"][0]]
    doc["phases"][0]["accesses"] = [{"address": 0, "size": 1 << 16,
                                     "sequential": False, "burst_bytes": 64}]
    for target, fields in ((doc["phases"][0]["accesses"][0], access),
                           (doc["phases"][0], phase), (doc, top)):
        for name, value in (fields or {}).items():
            if value is None:
                target.pop(name, None)
            else:
                target[name] = value
    return doc


class TestMalformedInput:
    """External traces are validated, never mispriced or crashed on."""

    @pytest.mark.parametrize("doc,message", [
        (_with(access={"sequential": "false"}), "phase 0 access 0: 'sequential'"),
        (_with(access={"vn": 1.9}), "phase 0 access 0: 'vn'"),
        (_with(access={"size": 4096.9}), "phase 0 access 0: 'size'"),
        (_with(access={"vn": -1}), "phase 0 access 0: 'vn'"),
        (_with(access={"vn": 2**64}), "phase 0 access 0: 'vn'"),
        (_with(access={"address": None}), "phase 0 access 0: 'address'"),
        (_with(access={"address": 2**63}), "phase 0 access 0: address"),
        (_with(phase={"accesses": [[0, 4096]]}),
         "phase 0 access 0: an access must be a JSON object"),
        (_with(dram_channels=0), "channels must be positive"),
        (_with(phase={"compute_cycles": float("nan")}),
         "phase 0: 'compute_cycles'"),
        (_with(accel_freq_mhz=float("nan")), "accelerator frequency"),
    ], ids=["sequential-string", "vn-float", "size-float", "vn-negative",
            "vn-2**64", "address-missing", "address-2**63", "access-not-object",
            "dram-channels-0", "compute-cycles-nan", "freq-nan"])
    def test_rejected_with_config_error(self, doc, message, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert tracefile.main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_access_errors_name_phase_and_access(self):
        doc = _with()
        doc["phases"].append(_with(access={"size": "4096"})["phases"][0])
        with pytest.raises(ConfigError, match=r"phase 1 access 0: 'size'"):
            tracefile.loads(json.dumps(doc))

    def test_json_bool_gather_prices_as_a_gather(self):
        """The same gather, well-formed: ``sequential`` is the JSON bool."""
        sweep = tracefile.evaluate(tracefile.loads(json.dumps(_with())))
        assert sweep.normalized_time("MGX") == pytest.approx(9.0)


class TestRoundTrip:
    def test_dumps_loads_identity(self):
        trace = tracefile.loads(json.dumps(_MINIMAL))
        again = tracefile.loads(tracefile.dumps(trace))
        assert again.phases[0].accesses == trace.phases[0].accesses
        assert again.name == trace.name

    def test_generated_trace_roundtrip(self):
        from repro.dnn.accelerator import CLOUD
        from repro.dnn.models import alexnet
        from repro.dnn.tracegen import DnnTraceGenerator

        dnn = DnnTraceGenerator(alexnet(), CLOUD).inference()
        tf = tracefile.TraceFile(
            name="alexnet", phases=dnn.trace.to_phases(),
            accel_freq_hz=CLOUD.array.freq_hz, dram_channels=4,
            protected_bytes=CLOUD.protected_bytes,
        )
        parsed = tracefile.loads(tracefile.dumps(tf))
        assert sum(p.total_bytes() for p in parsed.phases) \
            == dnn.trace.total_bytes


class TestEvaluate:
    def test_sweep_over_parsed_trace(self):
        trace = tracefile.loads(json.dumps(_MINIMAL))
        sweep = tracefile.evaluate(trace)
        assert sweep.normalized_time("BP") >= sweep.normalized_time("MGX") >= 1.0

    def test_cli_main(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_MINIMAL))
        assert tracefile.main([str(path), "--scheme", "MGX"]) == 0
        out = capsys.readouterr().out
        assert "MGX" in out

    def test_cli_has_no_jobs_flag(self, tmp_path, capsys):
        """Schemes price in-process; there is no pool to size."""
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_MINIMAL))
        with pytest.raises(SystemExit) as exc:
            tracefile.main([str(path), "--jobs", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            tracefile.main(["--help"])
        assert "--jobs" not in capsys.readouterr().out
