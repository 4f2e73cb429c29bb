"""Analytical iteration-time model for mixed prefill/decode batches.

The model mirrors how a chunked-prefill engine (Sarathi/vLLM) spends an
iteration:

* **Dense GEMMs** — every token in the batch (prefill or decode) flows
  through the same projections and MLP.  GEMM efficiency saturates with
  the number of tokens in flight, which is what makes small chunks
  expensive per token and produces the throughput/latency trade-off of
  Figure 4.
* **Attention** — prefill chunks pay a causal quadratic cost against
  the tokens already processed; decode tokens pay a linear cost in
  their context length.
* **Memory traffic** — each iteration streams the weight shard once
  (the memory-bound floor that dominates decode-only batches) plus KV
  cache reads/writes.
* **Fixed overhead** — kernel launches, sampling, TP allreduce.

Compute and memory are assumed to overlap, so the iteration takes the
maximum of the two, plus overhead.  The model is deterministic, cheap
(a handful of multiply-adds), and strictly monotone in chunk size,
which the dynamic chunker relies on when inverting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as _np

from repro.perfmodel.hardware import HardwareSpec
from repro.perfmodel.modelspec import ModelSpec

#: Token count at which prefill-GEMM efficiency reaches half of its
#: asymptote (controls the Figure 4 knee).
MFU_HALF_TOKENS = 230.0
#: Fraction of device memory kept aside for activations and
#: fragmentation; the rest, after the weight shard, holds KV cache.
KV_MEMORY_RESERVE_FRACTION = 0.08

@dataclass(frozen=True)
class PrefillChunk:
    """A slice of one request's prompt processed this iteration.

    Attributes:
        tokens: Number of prompt tokens in the chunk.
        context_before: Prompt tokens of the same request already
            processed in earlier iterations (the chunk attends to them).
    """

    tokens: int
    context_before: int = 0


@dataclass
class BatchShape:
    """Aggregate description of one iteration's work.

    Attributes:
        prefill_chunks: Chunks of prompt processing in this iteration.
        num_decodes: Number of requests contributing one decode token.
        decode_context_total: Sum of context lengths (prompt + generated
            so far) across the decode requests.
    """

    prefill_chunks: list[PrefillChunk] = field(default_factory=list)
    num_decodes: int = 0
    decode_context_total: int = 0

    @property
    def prefill_tokens(self) -> int:
        return sum(chunk.tokens for chunk in self.prefill_chunks)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.num_decodes


class ExecutionModel:
    """Computes iteration latency for a (model, hardware, TP) deployment,
    calibrated by :data:`MFU_HALF_TOKENS` and
    :data:`KV_MEMORY_RESERVE_FRACTION`."""

    #: Entry cap on the prefill_time memo (distinct prompt lengths x
    #: chunk sizes per deployment; cleared wholesale on overflow).
    _PREFILL_CACHE_LIMIT = 100_000

    def __init__(
        self,
        model: ModelSpec,
        hardware: HardwareSpec,
        tp_degree: int = 1,
    ) -> None:
        """Args:
        model: Transformer architecture.
        hardware: Per-GPU capabilities.
        tp_degree: Tensor-parallel width; FLOPs, bandwidth and memory
            all scale linearly, at the cost of allreduce overhead.
        """
        if tp_degree < 1:
            raise ValueError(f"tp_degree must be >= 1, got {tp_degree}")
        self.model = model
        self.hardware = hardware
        self.tp_degree = int(tp_degree)

        # Precomputed per-deployment constants (per-rank view: shard
        # the work by TP, each rank has its own FLOPs and bandwidth).
        self._linear_flops_per_token = model.linear_flops_per_token() / tp_degree
        self._attn_flops_scale = (
            4.0 * model.hidden_size * model.num_layers / tp_degree
        )
        self._weight_bytes = model.weight_bytes() / tp_degree
        self._kv_bytes_per_token = model.kv_bytes_per_token() / tp_degree
        self._peak_flops = hardware.peak_flops
        self._bandwidth = hardware.mem_bandwidth
        self._mfu_linear = hardware.mfu_linear
        self._mfu_attention = hardware.mfu_attention
        self._overhead = hardware.overhead(tp_degree)

        # SJF/SRPF service estimates and the capacity planner call
        # prefill_time() with heavily repeating (prompt, chunk) pairs;
        # the fixed-chunk sum is deterministic, so memoize it.
        self._prefill_time_cache: dict[tuple[int, int], float] = {}

        reserve = KV_MEMORY_RESERVE_FRACTION * hardware.mem_capacity
        kv_room = hardware.mem_capacity - self._weight_bytes - reserve
        if kv_room <= 0:
            raise ValueError(
                f"{model.name} does not fit on {tp_degree}x{hardware.name}: "
                f"weight shard {self._weight_bytes / 1e9:.1f} GB"
            )
        self._kv_capacity_tokens = int(kv_room / self._kv_bytes_per_token)

    @property
    def overhead(self) -> float:
        """Fixed per-iteration overhead in seconds."""
        return self._overhead

    @property
    def kv_capacity_tokens(self) -> int:
        """Tokens of KV cache that fit in device memory."""
        return self._kv_capacity_tokens

    def _gemm_efficiency(self, prefill_tokens: int) -> float:
        """Prefill-GEMM MFU as a saturating function of chunk size."""
        t = float(prefill_tokens)
        return self._mfu_linear * t / (t + MFU_HALF_TOKENS)

    def batch_time(self, shape: BatchShape) -> float:
        """Execution time in seconds for one iteration of ``shape``:
        :meth:`batch_time_flat` over its ``(tokens, context_before)``
        pairs."""
        return self.batch_time_flat(
            [(c.tokens, c.context_before) for c in shape.prefill_chunks],
            shape.num_decodes,
            shape.decode_context_total,
        )

    def batch_time_flat(
        self,
        prefill_chunks: "list[tuple[int, int]] | tuple[tuple[int, int], ...]",
        num_decodes: int,
        decode_context_total: int,
    ) -> float:
        """Execution time in seconds for one iteration of
        ``prefill_chunks`` (``(tokens, context_before)`` pairs) batched
        with ``num_decodes`` decodes holding ``decode_context_total``
        context tokens.

        The linear-layer cost distinguishes the two regimes the
        scheduler lives between.  Prefill chunks run real GEMMs whose
        utilization degrades at small M (the Figure 4 knee), so their
        FLOPs are charged at a chunk-size-dependent MFU.  Decode
        tokens piggyback on the same weight stream (Sarathi's fused
        prefill-decode batches); a decode-only batch is bandwidth
        bound, charged at the asymptotic MFU and dominated by the
        weight/KV memory term.  The engine calls this on its hot path
        without building :class:`PrefillChunk`/:class:`BatchShape`
        objects.
        """
        prefill_tokens = 0
        for tokens, _ in prefill_chunks:
            prefill_tokens += tokens
        total_tokens = prefill_tokens + num_decodes
        if total_tokens <= 0:
            return 0.0

        # --- compute path ---
        compute = (
            self._linear_flops_per_token
            * total_tokens
            / (self._peak_flops * self._mfu_linear)
        )
        if prefill_tokens > 0:
            compute_prefill = (
                self._linear_flops_per_token
                * prefill_tokens
                / (
                    self._peak_flops
                    * self._gemm_efficiency(prefill_tokens)
                )
            )
            compute = max(compute, compute_prefill)

        attn_flops = 0.0
        prefill_context_read = 0
        for tokens, context_before in prefill_chunks:
            # Causal attention: query i attends to context_before + i keys.
            avg_keys = context_before + (tokens + 1) / 2.0
            attn_flops += self._attn_flops_scale * tokens * avg_keys
            prefill_context_read += context_before
        attn_flops += self._attn_flops_scale * decode_context_total
        compute += attn_flops / (self._peak_flops * self._mfu_attention)

        # --- memory path ---
        kv_read = self._kv_bytes_per_token * (
            decode_context_total + prefill_context_read
        )
        kv_write = self._kv_bytes_per_token * total_tokens
        mem_bytes = self._weight_bytes + kv_read + kv_write
        memory = mem_bytes / self._bandwidth

        return max(compute, memory) + self._overhead

    def decode_batch_times_flat(self, num_decodes: int, decode_context_totals):
        """Vectorized :meth:`batch_time_flat` for a pure-decode schedule.

        ``decode_context_totals`` is a NumPy int array of context
        totals, one per future iteration; the return value is the
        float64 exec-time array.  Each element reproduces the exact
        float operation sequence of :meth:`batch_time_flat` for the
        equivalent decode-only batch (``num_decodes`` must be
        positive), so the engine's level-synchronous decode stretches
        stay bit-identical to per-iteration calls.
        """
        compute = (
            self._linear_flops_per_token
            * num_decodes
            / (self._peak_flops * self._mfu_linear)
        )
        attn_flops = 0.0 + self._attn_flops_scale * decode_context_totals
        compute = compute + attn_flops / (
            self._peak_flops * self._mfu_attention
        )
        kv_read = self._kv_bytes_per_token * decode_context_totals
        kv_write = self._kv_bytes_per_token * num_decodes
        mem_bytes = self._weight_bytes + kv_read + kv_write
        memory = mem_bytes / self._bandwidth
        return _np.maximum(compute, memory) + self._overhead

    def decode_batch_time(
        self, num_decodes: int, decode_context_total: int
    ) -> float:
        """Iteration time for a pure decode batch (no prefill chunk)."""
        return self.batch_time_flat((), num_decodes, decode_context_total)

    def prefill_time(self, prompt_tokens: int, chunk_size: int) -> float:
        """Total time to prefill a prompt alone using fixed-size chunks.

        Used by baselines (SJF/SRPF service-time estimates) and by the
        capacity planner; it sums the per-chunk iteration times.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        key = (prompt_tokens, chunk_size)
        cached = self._prefill_time_cache.get(key)
        if cached is not None:
            return cached
        total = 0.0
        done = 0
        while done < prompt_tokens:
            tokens = min(chunk_size, prompt_tokens - done)
            total += self.batch_time_flat(((tokens, done),), 0, 0)
            done += tokens
        if len(self._prefill_time_cache) >= self._PREFILL_CACHE_LIMIT:
            self._prefill_time_cache.clear()
        self._prefill_time_cache[key] = total
        return total

    def seconds_per_prefill_token(self, chunk_size: int = 512) -> float:
        """Marginal prefill cost per token at a reference chunk size.

        A cheap linearization used by priority functions (Eqs. 4-5 use
        alpha in ms/token against remaining token counts).
        """
        return self.batch_time_flat(((chunk_size, 0),), 0, 0) / chunk_size

    def peak_prefill_throughput(self, chunk_size: int) -> float:
        """Prefill tokens/s when running chunks of ``chunk_size`` alone."""
        return chunk_size / self.batch_time_flat(((chunk_size, 0),), 0, 0)
