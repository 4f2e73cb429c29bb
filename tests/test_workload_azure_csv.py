"""Unit tests for the Azure trace CSV loader."""

import pytest

from repro.workload.azure_csv import load_azure_trace, write_azure_csv
from repro.workload.tiers import TierAssigner, TierMix
from repro.workload.trace import TraceBuilder
from repro.workload.arrivals import PoissonArrivals
from repro.workload.datasets import AZURE_CONV


def write_csv(path, rows, header="TIMESTAMP,ContextTokens,GeneratedTokens"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoading:
    def test_numeric_timestamps(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["0.0,1000,50", "1.5,2000,10", "3.0,500,5"])
        trace = load_azure_trace(path)
        assert len(trace) == 3
        assert trace[0].arrival_time == 0.0
        assert trace[1].prompt_tokens == 2000
        assert trace[2].decode_tokens == 5

    def test_iso_timestamps_rebased(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [
            "2024-01-01T00:00:00,100,5",
            "2024-01-01T00:00:10,200,5",
        ])
        trace = load_azure_trace(path)
        assert trace[0].arrival_time == 0.0
        assert trace[1].arrival_time == pytest.approx(10.0)

    def test_unsorted_rows_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["5.0,100,5", "1.0,200,5", "3.0,300,5"])
        trace = load_azure_trace(path)
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)
        assert trace[0].prompt_tokens == 200

    def test_alternate_headers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["0,100,5"],
                  header="Timestamp,context_tokens,generated_tokens")
        assert len(load_azure_trace(path)) == 1

    def test_prompt_clipped_and_floored(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["0,999999,0", "1,0,5"])
        trace = load_azure_trace(path, max_prompt_tokens=8192)
        assert trace[0].prompt_tokens == 8192
        assert trace[0].decode_tokens == 1  # floored
        assert trace[1].prompt_tokens == 1

    def test_target_qps_rescales(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [f"{i * 10.0},100,5" for i in range(11)]  # native 0.1 QPS
        write_csv(path, rows)
        trace = load_azure_trace(path, target_qps=2.0)
        # 10 gaps at 2 QPS -> 5 s span.
        assert trace.duration == pytest.approx(5.0)

    def test_max_requests(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [f"{i},100,5" for i in range(50)])
        assert len(load_azure_trace(path, max_requests=7)) == 7

    def test_tier_assignment_default_thirds(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [f"{i},100,5" for i in range(600)])
        trace = load_azure_trace(path, seed=3)
        names = {r.qos.name for r in trace}
        assert names == {"Q1", "Q2", "Q3"}

    def test_custom_assigner(self, tmp_path):
        from repro.core.qos import Q1_INTERACTIVE

        path = tmp_path / "t.csv"
        write_csv(path, [f"{i},100,5" for i in range(10)])
        assigner = TierAssigner(
            TierMix(tiers=(Q1_INTERACTIVE,), weights=(1.0,),
                    app_names=("chat",))
        )
        trace = load_azure_trace(path, tier_assigner=assigner)
        assert all(r.qos.name == "Q1" for r in trace)


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("TIMESTAMP,ContextTokens,GeneratedTokens\n")
        with pytest.raises(ValueError, match="no rows"):
            load_azure_trace(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["0,100"], header="TIMESTAMP,ContextTokens")
        with pytest.raises(ValueError, match="generated"):
            load_azure_trace(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["yesterday,100,5"])
        with pytest.raises(ValueError, match="unparseable"):
            load_azure_trace(path)

    @pytest.mark.parametrize("row,field", [
        ("nan,100,5", "timestamp"),
        ("inf,100,5", "timestamp"),
        ("-inf,100,5", "timestamp"),
        ("1,inf,5", "context"),
        ("1,nan,5", "context"),
        ("1,100,inf", "generated"),
        ("1,100,NaN", "generated"),
    ])
    def test_non_finite_values(self, tmp_path, row, field):
        path = tmp_path / "t.csv"
        write_csv(path, ["0,100,5", row])
        with pytest.raises(
            ValueError, match=rf"t\.csv: line 3: non-finite {field}"
        ):
            load_azure_trace(path)

    def test_bad_target_qps(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["0,100,5", "1,100,5"])
        with pytest.raises(ValueError):
            load_azure_trace(path, target_qps=0.0)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        original = TraceBuilder(
            AZURE_CONV, arrivals=PoissonArrivals(2.0),
            tier_assigner=TierAssigner(), seed=4,
        ).build(40)
        path = tmp_path / "t.csv"
        write_azure_csv(original, path)
        loaded = load_azure_trace(path, seed=4)
        assert len(loaded) == 40
        for a, b in zip(original, loaded):
            assert a.prompt_tokens == b.prompt_tokens
            assert a.decode_tokens == b.decode_tokens
            assert b.arrival_time == pytest.approx(
                a.arrival_time - original[0].arrival_time, abs=1e-4
            )

    def test_loaded_trace_simulates(self, tmp_path, execution_model):
        from repro.api import make_scheduler
        from tests.conftest import drain_trace

        original = TraceBuilder(
            AZURE_CONV, arrivals=PoissonArrivals(2.0),
            tier_assigner=TierAssigner(), seed=4,
        ).build(30)
        path = tmp_path / "t.csv"
        write_azure_csv(original, path)
        trace = load_azure_trace(path)
        summary, _ = drain_trace(
            execution_model, make_scheduler("qoserve-oracle",
                                            execution_model), trace
        )
        assert summary.finished == 30


class TestMalformedFuzz:
    """Seeded mutations of a valid trace CSV: each loads into a trace
    of positive token counts or raises a ``ValueError`` that names the
    file and the line (or, for a file without data rows, says so),
    never another exception."""

    HEADER = ("TIMESTAMP", "ContextTokens", "GeneratedTokens")
    ROWS = (("0.0", "100", "5"), ("1.5", "2000", "10"), ("3.0", "500", "7"))
    #: Replacement fields: missing, negative, huge, non-numeric,
    #: non-finite and NUL-byte values.
    VALUES = (
        "", "-1", "-0.5", "-1e300", "1e300", "1e400", "9" * 400, "abc",
        "nan", "NaN", "inf", "-inf", "\x00", "1\x002", "0x10", " 5 ",
        "1_000", "--1", "2024-01-01T00:00:00", "1,5",
    )
    HEADERS = (
        ("TIMESTAMP", "ContextTokens"),
        ("TIMESTAMP", "ContextTokens", "Generated"),
        ("\ufeffTIMESTAMP", "ContextTokens", "GeneratedTokens"),
        ("TIMESTAMP", "TIMESTAMP", "GeneratedTokens"),
        ("timestamp", "prompt_tokens", "decode_tokens", "extra"),
        ("",),
        ("TIME\x00STAMP", "ContextTokens", "GeneratedTokens"),
    )

    @classmethod
    def _mutations(cls, rng, count):
        for _ in range(count):
            header = list(cls.HEADER)
            rows = [list(row) for row in cls.ROWS]
            kind = rng.randrange(6)
            if kind == 0:  # a short row
                del rows[rng.randrange(len(rows))][rng.randrange(3):]
            elif kind == 1:
                rows[rng.randrange(len(rows))][rng.randrange(3)] = (
                    rng.choice(cls.VALUES)
                )
            elif kind == 2:
                header = list(rng.choice(cls.HEADERS))
            elif kind == 3:  # a long row
                rows[rng.randrange(len(rows))].append(
                    rng.choice(cls.VALUES)
                )
            elif kind == 4:  # header only, or nothing at all
                rows = []
                if rng.random() < 0.5:
                    header = []
            text = "".join(
                ",".join(line) + "\n" for line in [header, *rows] if line
            )
            data = text.encode()
            if kind == 5:
                cut = rng.randrange(len(data))
                data = data[:cut] + rng.choice(
                    (b"\x00", b"\xff\xfe", b'"', b"\r", b"")
                ) + data[cut + 1:]
            yield data

    def test_loader(self, tmp_path):
        import random

        path = tmp_path / "t.csv"
        loaded = refused = 0
        for data in self._mutations(random.Random(31), 300):
            path.write_bytes(data)
            try:
                trace = load_azure_trace(path)
            except ValueError as error:
                message = str(error)
                assert message.startswith(f"{path}: "), (data, message)
                assert "line " in message or "no rows" in message, (
                    data, message,
                )
                refused += 1
                continue
            assert all(
                r.prompt_tokens >= 1 and r.decode_tokens >= 1
                for r in trace
            ), data
            arrivals = [r.arrival_time for r in trace]
            assert arrivals == sorted(arrivals), data
            loaded += 1
        assert loaded and refused
