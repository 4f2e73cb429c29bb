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
