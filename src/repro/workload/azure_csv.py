"""Loader for the public Azure LLM inference trace format.

The paper's Azure Code and Azure Conversation workloads come from the
`Azure public dataset <https://github.com/Azure/AzurePublicDataset>`_
LLM inference traces, CSVs with columns ``TIMESTAMP``,
``ContextTokens`` and ``GeneratedTokens``.  This reproduction ships
synthetic stand-ins fit to the published percentiles (Table 2), but
when the real CSVs are available this loader turns them into
:class:`~repro.workload.trace.Trace` objects directly, so every
experiment can run on the genuine arrival process and length marginals.

Timestamps may be ISO-8601 strings or numeric seconds; arrivals are
re-based to zero and can be re-scaled to a target mean QPS (the paper
replays trace lengths under Poisson/diurnal arrivals — re-scaling
reproduces its fixed-QPS methodology on real lengths).
"""

from __future__ import annotations

import csv
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from repro.core.request import Request
from repro.simcore.rng import RngStreams
from repro.workload.tiers import TierAssigner
from repro.workload.trace import Trace

#: Accepted header spellings per column (the published traces vary in
#: case).
_COLUMNS = {
    "timestamp": ("TIMESTAMP", "Timestamp", "timestamp", "arrival_time"),
    "context": ("ContextTokens", "context_tokens", "prompt_tokens"),
    "generated": ("GeneratedTokens", "generated_tokens", "decode_tokens"),
}


def _column(header: list[str], field: str) -> str:
    keys = _COLUMNS[field]
    for key in keys:
        if key in header:
            return key
    raise ValueError(f"missing {field} column (looked for {', '.join(keys)})")


def _parse_timestamp(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw.replace("Z", "+00:00")).timestamp()
    except ValueError as error:
        raise ValueError(f"unparseable timestamp {raw!r}") from error


def _value(row: dict, key: str, field: str) -> float:
    raw = row[key]
    if not raw:  # empty, or None on a short row
        raise ValueError(f"missing {field}")
    value = _parse_timestamp(raw) if field == "timestamp" else float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {field} {value!r}")
    if value < 0 and field != "timestamp":
        raise ValueError(f"negative {field} {raw!r}")
    return value


def load_azure_trace(
    path: str | Path,
    tier_assigner: TierAssigner | None = None,
    target_qps: float | None = None,
    max_requests: int | None = None,
    max_prompt_tokens: int = 8192,
    seed: int = 0,
    dataset_name: str | None = None,
) -> Trace:
    """Load an Azure LLM inference CSV as a simulation trace.

    Args:
        path: CSV with TIMESTAMP / ContextTokens / GeneratedTokens.
        tier_assigner: QoS assignment policy; defaults to the Table 3
            equal-thirds split, mirroring the paper's methodology of
            dividing the dataset across application tiers.
        target_qps: When given, inter-arrival gaps are scaled so the
            loaded span matches this mean rate (the paper's fixed-QPS
            replay); ``None`` keeps the native timestamps.
        max_requests: Truncate after this many rows (at least 1).
        max_prompt_tokens: Clip prompts at the serving context window.
        seed: Seed for tier assignment.
        dataset_name: Trace label; defaults to the file stem.

    Returns:
        An arrival-sorted :class:`Trace`.

    Raises:
        ValueError: On missing columns, short rows, unparseable,
            negative or non-finite values, or undecodable text (naming
            the file and line), or an empty file.
    """
    if max_requests is not None and max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as source:
        reader = csv.DictReader(source)
        try:
            columns = [
                (field, _column(reader.fieldnames, field))
                for field in _COLUMNS if reader.fieldnames is not None
            ]
            for row in reader:
                rows.append([_value(row, key, field) for field, key in columns])
                if len(rows) == max_requests:
                    break
        except (ValueError, csv.Error) as error:
            raise ValueError(
                f"{path}: line {reader.line_num}: {error}"
            ) from None
    if not rows:
        raise ValueError(f"{path}: no rows")
    arrivals, prompts, decodes = zip(*rows)

    order = np.argsort(np.asarray(arrivals), kind="stable")
    base = arrivals[order[0]]
    times = np.asarray([arrivals[i] - base for i in order], dtype=np.float64)
    span = float(times[-1]) if len(times) > 1 else 0.0
    if target_qps is not None:
        if not 0 < target_qps < math.inf:
            raise ValueError(
                f"target_qps must be positive and finite, got {target_qps}"
            )
        native_qps = (len(times) - 1) / span if span > 0 else None
        if native_qps and native_qps > 0:
            times = times * (native_qps / target_qps)

    assigner = tier_assigner or TierAssigner()
    streams = RngStreams(seed)
    tier_idx, important = assigner.assign(
        streams.stream("azure-tiers"), len(times)
    )

    requests = []
    for new_id, source_index in enumerate(order):
        prompt = min(max(1, int(prompts[source_index])), max_prompt_tokens)
        decode = max(1, int(decodes[source_index]))
        requests.append(
            Request(
                request_id=new_id,
                arrival_time=float(times[new_id]),
                prompt_tokens=prompt,
                decode_tokens=decode,
                qos=assigner.tier(int(tier_idx[new_id])),
                app_id=assigner.app_name(int(tier_idx[new_id])),
                important=bool(important[new_id]),
            )
        )
    return Trace(
        requests,
        dataset_name=dataset_name or path.stem,
        seed=seed,
    )


def write_azure_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace in the Azure CSV layout (round-trip helper)."""
    with Path(path).open("w", newline="") as sink:
        writer = csv.writer(sink)
        writer.writerow(["TIMESTAMP", "ContextTokens", "GeneratedTokens"])
        for request in trace:
            writer.writerow(
                [
                    f"{request.arrival_time:.6f}",
                    request.prompt_tokens,
                    request.decode_tokens,
                ]
            )
