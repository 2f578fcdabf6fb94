"""Prefill + autoregressive decoding driver (paper §1 / §2.1).

LLM inference splits into a *prefill* stage that processes the whole prompt in
parallel and a *decoding* stage that generates tokens one at a time, each step
touching the full weights and the growing KV cache.  This module runs both
stages on the NumPy transformer and records the statistics the accelerator
cost models need (tokens, attention density, per-stage GEMM volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .attention import KVCache
from .config import ModelConfig
from .transformer import ForwardStats, TransformerModel

__all__ = [
    "GenerationResult",
    "IncrementalDecoder",
    "KVCorruptionError",
    "greedy_sample",
    "generate",
    "stage_gemm_macs",
]

KeyPredictor = Callable[[np.ndarray, np.ndarray], np.ndarray]


class KVCorruptionError(RuntimeError):
    """A KV cache holds a different row count than the token history implies.

    Every committed token corresponds to exactly one K/V row per layer, so a
    layer whose cache length disagrees with the stream's token history has
    been corrupted (a torn append, a stray write).  Raised by
    :meth:`IncrementalDecoder.verify_kv_rows`; the serving engine treats it
    as a per-request failure -- the stream's KV is untrusted and must be
    rebuilt by re-prefilling -- rather than a process error.
    """

    site = "session.append"


@dataclass
class GenerationResult:
    """Tokens produced by :func:`generate` plus per-stage statistics."""

    prompt_tokens: List[int]
    generated_tokens: List[int]
    prefill_stats: ForwardStats
    decode_stats: List[ForwardStats]
    logits_history: List[np.ndarray] = field(default_factory=list)

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def decode_attention_density(self) -> float:
        totals = sum(s.keys_total for s in self.decode_stats)
        attended = sum(s.keys_attended for s in self.decode_stats)
        return attended / totals if totals else 1.0


def greedy_sample(logits: np.ndarray) -> int:
    """Pick the argmax token from the last position's logits."""
    logits = np.asarray(logits)
    last = logits[-1] if logits.ndim == 2 else logits
    return int(np.argmax(last))


class IncrementalDecoder:
    """One generation stream: a model's KV caches plus prefill/step methods.

    This is the unit the serving layer multiplexes -- each concurrent request
    owns one decoder (its KV caches and per-stage statistics) while all
    decoders share the same underlying model weights.  :func:`generate` is a
    thin single-stream driver over the same API.

    ``model`` may be a :class:`~repro.model.transformer.TransformerModel` or
    :class:`~repro.model.transformer.QuantizedTransformer` -- anything exposing
    ``forward(tokens, caches, predictor)`` and ``new_cache()``.  When
    ``arena`` (a :class:`~repro.serve.kv_arena.PagedKVArena`) is given, the
    decoder's KV caches are thin handles onto one arena session instead of
    standalone buffers; :meth:`release` returns the session's pages once the
    stream is finished.

    With ``prefix_cache=True`` (requires an arena) the decoder consults the
    arena's cross-request prefix index before prefilling: prompt rows whose
    KV pages are already cached are mapped into the session read-only and
    their prefill compute is *skipped* -- only the novel suffix (always at
    least the last prompt row, whose logits sample the first token) runs
    through the model.  K/V rows are deterministic functions of the exact
    token prefix, and the skipped rows' attention statistics are credited
    from the per-row counts the registering prefill recorded, so tokens and
    metrics stay bit-identical to a cold prefill.  Completed prefills
    register their own full prompt pages back into the index.
    """

    def __init__(
        self,
        model,
        predictor: Optional[KeyPredictor] = None,
        arena=None,
        prefix_cache: bool = False,
    ) -> None:
        self.model = model
        self.predictor = predictor
        self.arena = arena
        self.prefix_cache = bool(prefix_cache and arena is not None)
        # route through the model's cache hook so wrappers can customise it
        self.caches: List[KVCache] = (
            model.new_cache() if arena is None else model.new_cache(arena=arena)
        )
        self.prefill_stats: Optional[ForwardStats] = None
        self.decode_stats: List[ForwardStats] = []
        self.last_logits: Optional[np.ndarray] = None
        # resumable partial-prefill state (begin_prefill/prefill_step_batch):
        # the tokens still owed to the KV cache plus the statistics of the
        # chunks already run, folded into prefill_stats on completion
        self._prefill_pending: Optional[List[int]] = None
        self._prefill_done = 0
        self._prefill_partial: Optional[ForwardStats] = None
        # prefix-cache bookkeeping: prompt rows mapped from the index, the
        # prompt itself (for registration on completion) and the per-chunk
        # per-row attention counts accumulated towards that registration
        self.prefix_reused_tokens = 0
        self._prompt_tokens: Optional[List[int]] = None
        self._prefill_rows: Optional[List[tuple]] = None

    def release(self) -> None:
        """Free the KV storage held by this stream (idempotent).

        For arena-backed decoders this returns the session's pages to the
        shared pool; for standalone caches it drops the buffers.  Statistics
        and logits survive -- only the KV history is discarded, so the
        decoder can no longer step afterwards.
        """
        for cache in self.caches:
            cache.release()

    @property
    def seq_len(self) -> int:
        """Number of tokens currently held in the KV cache."""
        return self.caches[0].seq_len if self.caches else 0

    def snapshot_kv(self):
        """Copy this stream's KV off-arena and free its pages.

        Returns the :class:`~repro.serve.kv_arena.KVSnapshot` when the
        decoder is arena-backed; ``None`` for standalone or cache-less
        streams, whose pages cannot be snapshotted -- the caller falls back
        to release + re-prefill.  The decoder object stays fully usable:
        every pending-prefill chunk, statistic and logit survives, and after
        :meth:`restore_kv` the stream continues bit-identically to one that
        was never interrupted.
        """
        if self.arena is None or not self.caches:
            return None
        return self.arena.snapshot_session(self.caches[0].arena_session)

    def restore_kv(self, snapshot) -> None:
        """Fault a :meth:`snapshot_kv` snapshot's pages back into the stream."""
        if self.arena is None or not self.caches:
            raise RuntimeError("restore_kv requires an arena-backed decoder")
        self.arena.restore_session(self.caches[0].arena_session, snapshot)

    def truncate_kv(self, n_rows: int) -> None:
        """Pop the last ``n_rows`` KV rows from every layer (arena streams).

        The speculative-decode rollback hook: rejected draft tokens'
        already-appended rows are discarded through
        :meth:`~repro.serve.kv_arena.PagedKVArena.truncate_session`, so the
        stream's KV is bit-identical to one that never saw the drafts.
        """
        if int(n_rows) == 0:
            return
        if self.arena is None or not self.caches:
            raise RuntimeError("truncate_kv requires an arena-backed decoder")
        self.arena.truncate_session(self.caches[0].arena_session, int(n_rows))

    def verify_kv_rows(self, expected: int) -> None:
        """Integrity check: every layer must hold exactly ``expected`` KV rows.

        The row count per layer is a pure function of the tokens fed through
        the decoder, so any divergence means the cache was corrupted between
        forward passes; raises :class:`KVCorruptionError` naming the first
        bad layer.  Cache-less models (stub streams with ``new_cache() ==
        []``) hold no rows to verify and always pass.
        """
        expected = int(expected)
        for layer, cache in enumerate(self.caches):
            got = cache.seq_len
            if got != expected:
                raise KVCorruptionError(
                    f"KV corruption: layer {layer} holds {got} rows where the "
                    f"token history implies {expected}"
                )

    def prefill(self, prompt_tokens: Sequence[int]) -> int:
        """Process the whole prompt in parallel; returns the first sampled token."""
        prompt_tokens = [int(t) for t in prompt_tokens]
        if not prompt_tokens:
            raise ValueError("prompt must contain at least one token")
        if self.prefill_stats is not None or self._prefill_pending is not None:
            raise RuntimeError("decoder was already prefilled")
        n_reused, credit_att, credit_tot = self._acquire_prefix(prompt_tokens)
        # run only the novel suffix; the right-aligned causal mask gives the
        # suffix rows their absolute positions over the mapped cache rows, so
        # each row is bit-identical to the same row of a cold full prefill
        logits, stats = self.model.forward(
            prompt_tokens[n_reused:], caches=self.caches, predictor=self.predictor
        )
        if n_reused:
            stats.keys_attended += int(credit_att.sum())
            stats.keys_total += int(credit_tot.sum())
            stats.tokens_processed += n_reused
            if stats.row_keys_attended is not None:
                stats.row_keys_attended = np.concatenate(
                    [credit_att, stats.row_keys_attended]
                )
                stats.row_keys_total = np.concatenate(
                    [credit_tot, stats.row_keys_total]
                )
        self.prefill_stats = stats
        self.last_logits = logits
        if self.prefix_cache:
            self._prompt_tokens = prompt_tokens
            self._prefill_rows = (
                [(stats.row_keys_attended, stats.row_keys_total)]
                if stats.row_keys_attended is not None
                else None
            )
            self._register_prefix()
        return greedy_sample(logits)

    def _acquire_prefix(self, prompt_tokens: List[int]):
        """Map cached prompt pages into this decoder's fresh arena session."""
        if not self.prefix_cache:
            return 0, None, None
        n_reused, att, tot = self.arena.acquire_prefix(
            self.caches[0].arena_session, prompt_tokens
        )
        self.prefix_reused_tokens = n_reused
        return n_reused, att, tot

    def _register_prefix(self) -> None:
        """Index this decoder's completed prompt pages for future reuse."""
        rows, self._prefill_rows = self._prefill_rows, None
        if not self.prefix_cache or self._prompt_tokens is None or rows is None:
            return
        if any(att is None or tot is None for att, tot in rows):
            return  # a chunk ran without per-row stats: nothing registrable
        att = np.concatenate([np.asarray(a, dtype=np.int64) for a, _ in rows])
        tot = np.concatenate([np.asarray(t, dtype=np.int64) for _, t in rows])
        self.arena.register_prefix(
            self.caches[0].arena_session, self._prompt_tokens, att, tot
        )

    # -- chunked prefill (the serving engine's batched admission path) ---------

    def begin_prefill(self, prompt_tokens: Sequence[int]) -> None:
        """Register the prompt for incremental prefill without running it.

        The prompt is then fed to the model in ragged chunks by
        :meth:`prefill_step_batch`; until the last chunk lands the decoder is
        *mid-prefill* (:attr:`prefill_remaining` > 0, stepping is refused)
        and its partial statistics stay visible through
        :attr:`keys_attended` / :attr:`keys_total`.
        """
        prompt_tokens = [int(t) for t in prompt_tokens]
        if not prompt_tokens:
            raise ValueError("prompt must contain at least one token")
        if self.prefill_stats is not None or self._prefill_pending is not None:
            raise RuntimeError("decoder was already prefilled")
        self._prefill_pending = prompt_tokens
        self._prefill_done = 0
        self._prefill_partial = ForwardStats()
        if self.prefix_cache:
            self._prompt_tokens = prompt_tokens
            self._prefill_rows = []
            # cache-hit rows count as already-done chunks: the existing
            # resume-from-chunk machinery then runs only the novel suffix
            # (n_reused <= len(prompt) - 1, so at least one row remains)
            n_reused, att, tot = self._acquire_prefix(prompt_tokens)
            if n_reused:
                self._prefill_done = n_reused
                self._prefill_partial = ForwardStats(
                    keys_attended=int(att.sum()),
                    keys_total=int(tot.sum()),
                    tokens_processed=n_reused,
                )
                self._prefill_rows.append((att, tot))

    @property
    def prefill_remaining(self) -> int:
        """Prompt tokens not yet fed through the model (0 once prefilled)."""
        if self._prefill_pending is None:
            return 0
        return len(self._prefill_pending) - self._prefill_done

    @staticmethod
    def prefill_step_batch(
        prefills: Sequence["IncrementalDecoder"],
        chunk_sizes: Sequence[int],
        decodes: Sequence["IncrementalDecoder"] = (),
        decode_tokens: Sequence[int] = (),
        draft_tokens: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[List[Optional[int]], List]:
        """Advance a mixed batch: prefill chunks plus decode rows, one pass.

        ``prefills[i]`` (begun via :meth:`begin_prefill`) contributes its next
        ``chunk_sizes[i]`` prompt tokens; ``decodes[j]`` contributes the one
        accepted token ``decode_tokens[j]``.  The whole mixed batch runs as a
        single :meth:`~repro.model.transformer.QuantizedTransformer.prefill_batch`
        forward -- one GEMM per weight matrix for every row in the step --
        and each stream's logits, KV rows and statistics are bit-identical to
        running it alone (one-shot :meth:`prefill` / :meth:`step`).

        Returns ``(prefill_tokens, decode_tokens)``: ``prefill_tokens[i]`` is
        the first sampled token when decoder ``i`` finished its prompt this
        step, ``None`` while chunks remain; ``decode_tokens[j]`` is stream
        ``j``'s next token.  All decoders must share one model (and one
        predictor).

        A model without ``prefill_batch`` (the float
        :class:`~repro.model.transformer.TransformerModel`, test stubs) runs
        each stream's chunk alone through ``model.forward`` -- float GEMM
        rows are not batch-invariant, so that is the only bit-exact path
        there -- and takes each prompt in one chunk: a partial chunk through
        ``forward`` would reduce its softmax over a narrower width than the
        one-shot prefill and raises ``ValueError``.

        **Speculative decode** (``draft_tokens`` given, one token list per
        decode stream, empty lists allowed): stream ``j``'s chunk becomes
        ``[decode_tokens[j]] + draft_tokens[j]`` -- the accepted token plus
        up to ``k`` drafter proposals -- and the fused pass verifies all of
        them at once.  The greedy accept rule then runs over the stream's
        per-row logits: row ``i``'s argmax is always emitted (row 0 is
        exactly the token one-token decode would produce); draft ``i+1`` is
        accepted only while it *equals* that argmax, the first mismatch emits
        the corrected token and stops, and a fully-accepted draft list emits
        one bonus token from the final row.  Rejected drafts' KV rows are
        popped via :meth:`truncate_kv`, so the stream's tokens **and** KV are
        bit-identical to one-token decode -- the drafter only ever changes
        how many verified tokens one pass yields.  In this mode
        ``decode_tokens[j]`` in the return value is the *list* of emitted
        tokens (length ``accepted + 1``) and speculative streams require
        arena-backed decoders (rollback needs
        :meth:`~repro.serve.kv_arena.PagedKVArena.truncate_session`).
        """
        prefills = list(prefills)
        decodes = list(decodes)
        chunk_sizes = [int(n) for n in chunk_sizes]
        decode_tokens = [int(t) for t in decode_tokens]
        if len(chunk_sizes) != len(prefills):
            raise ValueError(
                f"got {len(chunk_sizes)} chunk sizes for {len(prefills)} decoders"
            )
        if len(decode_tokens) != len(decodes):
            raise ValueError(
                f"got {len(decode_tokens)} tokens for {len(decodes)} decoders"
            )
        drafts: Optional[List[List[int]]] = None
        if draft_tokens is not None:
            drafts = [[int(t) for t in d] for d in draft_tokens]
            if len(drafts) != len(decodes):
                raise ValueError(
                    f"got {len(drafts)} draft lists for {len(decodes)} decoders"
                )
        if not prefills and not decodes:
            return [], []
        everyone = prefills + decodes
        model = everyone[0].model
        predictor = everyone[0].predictor
        fused = getattr(model, "prefill_batch", None)
        if not all(d.model is model and d.predictor is predictor for d in everyone):
            raise RuntimeError("mixed prefill batches need one shared model")

        chunks: List[List[int]] = []
        totals: List[int] = []
        for decoder, n in zip(prefills, chunk_sizes):
            if decoder._prefill_pending is None:
                raise RuntimeError("begin_prefill() must run before chunking")
            if not 1 <= n <= decoder.prefill_remaining:
                raise ValueError(
                    f"chunk of {n} rows outside the remaining "
                    f"{decoder.prefill_remaining}-token prompt"
                )
            if fused is None and n != decoder.prefill_remaining:
                raise ValueError(
                    "a model without prefill_batch takes each prompt in one chunk"
                )
            start = decoder._prefill_done
            chunks.append(decoder._prefill_pending[start : start + n])
            totals.append(len(decoder._prefill_pending))
        for j, (decoder, token) in enumerate(zip(decodes, decode_tokens)):
            if decoder.prefill_stats is None:
                raise RuntimeError("prefill must finish before decode steps")
            tail = drafts[j] if drafts is not None else []
            chunks.append([token] + tail)
            totals.append(decoder.seq_len + 1 + len(tail))

        spec_idx = (
            [len(prefills) + j for j, d in enumerate(drafts) if d]
            if drafts is not None
            else []
        )
        if fused is None:
            if spec_idx:
                raise RuntimeError("draft verification needs a prefill_batch model")
            outs = [
                model.forward(chunk, caches=d.caches, predictor=predictor)
                for chunk, d in zip(chunks, everyone)
            ]
            logits = np.stack([out[-1] for out, _ in outs])
            stats_list = [stats for _, stats in outs]
            row_logits = {}
        else:
            # decode rows (and verify chunks) end their serial pass, so the
            # post-append width prefill_batch defaults to is theirs: only
            # prompt chunks need their final width spelled out
            logits, stats_list, row_logits = fused(
                chunks,
                [d.caches for d in everyone],
                predictor=predictor,
                total_lens=totals if prefills else None,
                row_logits_for=spec_idx,
            )

        prefill_out: List[Optional[int]] = []
        for i, (decoder, n) in enumerate(zip(prefills, chunk_sizes)):
            partial = decoder._prefill_partial
            partial.keys_attended += stats_list[i].keys_attended
            partial.keys_total += stats_list[i].keys_total
            partial.tokens_processed += stats_list[i].tokens_processed
            if decoder._prefill_rows is not None:
                decoder._prefill_rows.append(
                    (
                        stats_list[i].row_keys_attended,
                        stats_list[i].row_keys_total,
                    )
                )
            decoder._prefill_done += n
            if decoder.prefill_remaining == 0:
                decoder.prefill_stats = partial
                decoder._prefill_pending = None
                decoder._prefill_partial = None
                decoder.last_logits = logits[i : i + 1]
                decoder._register_prefix()
                prefill_out.append(greedy_sample(logits[i]))
            else:
                prefill_out.append(None)
        decode_out: List = []
        for j, decoder in enumerate(decodes):
            b = len(prefills) + j
            decoder.decode_stats.append(stats_list[b])
            if drafts is None:
                decoder.last_logits = logits[b : b + 1]
                decode_out.append(greedy_sample(logits[b]))
                continue
            drafts_j = drafts[j]
            if not drafts_j:
                decoder.last_logits = logits[b : b + 1]
                decode_out.append([greedy_sample(logits[b])])
                continue
            if decoder.arena is not None:
                decoder.arena.stats.draft_rows_appended += len(drafts_j)
            # greedy accept: row i's argmax is what one-token decode would
            # emit at that position, so emitting it (and accepting drafts
            # only while they match) reproduces the serial stream exactly
            rows = row_logits[b]
            out_tokens: List[int] = []
            kept = 0
            for i, d in enumerate(drafts_j):
                t = int(np.argmax(rows[i]))
                out_tokens.append(t)
                if t != d:
                    break
                kept += 1
            if kept == len(drafts_j):
                out_tokens.append(int(np.argmax(rows[kept])))
            decoder.truncate_kv(len(drafts_j) - kept)
            decoder.last_logits = rows[kept : kept + 1]
            decode_out.append(out_tokens)
        return prefill_out, decode_out

    def step(self, token: int) -> int:
        """Feed one accepted token through the model; returns the next token."""
        if self.prefill_stats is None:
            raise RuntimeError("prefill() must run before step()")
        logits, stats = self.model.forward(
            [int(token)], caches=self.caches, predictor=self.predictor
        )
        self.decode_stats.append(stats)
        self.last_logits = logits
        return greedy_sample(logits)

    @property
    def keys_attended(self) -> int:
        base = self.prefill_stats or self._prefill_partial
        total = base.keys_attended if base else 0
        return total + sum(s.keys_attended for s in self.decode_stats)

    @property
    def keys_total(self) -> int:
        base = self.prefill_stats or self._prefill_partial
        total = base.keys_total if base else 0
        return total + sum(s.keys_total for s in self.decode_stats)


def generate(
    model,
    prompt_tokens: Sequence[int],
    max_new_tokens: int = 16,
    predictor: Optional[KeyPredictor] = None,
    keep_logits: bool = False,
    eos_token: Optional[int] = None,
) -> GenerationResult:
    """Greedy generation with an explicit prefill / decode split.

    ``model`` may be a :class:`TransformerModel` or
    :class:`~repro.model.transformer.QuantizedTransformer` -- anything exposing
    ``forward(tokens, caches, predictor)`` and ``new_cache()``.
    """
    prompt_tokens = [int(t) for t in prompt_tokens]
    decoder = IncrementalDecoder(model, predictor=predictor)
    next_token = decoder.prefill(prompt_tokens)
    generated: List[int] = []
    history: List[np.ndarray] = [decoder.last_logits] if keep_logits else []

    for step in range(max_new_tokens):
        generated.append(next_token)
        if eos_token is not None and next_token == eos_token:
            break
        if step == max_new_tokens - 1:
            break  # no further token is needed, skip the trailing forward pass
        next_token = decoder.step(next_token)
        if keep_logits:
            history.append(decoder.last_logits)

    return GenerationResult(
        prompt_tokens=prompt_tokens,
        generated_tokens=generated,
        prefill_stats=decoder.prefill_stats,
        decode_stats=decoder.decode_stats,
        logits_history=history,
    )


def stage_gemm_macs(
    config: ModelConfig,
    prompt_len: int,
    decode_len: int,
    batch: int = 1,
) -> dict:
    """Analytic MAC counts of the prefill and decoding stages.

    Returns a dict with per-stage linear-layer MACs and attention MACs,
    which feed the GPU roofline model and the accelerator cost model
    (Fig. 1a breakdown).
    """
    h = config.hidden_size
    f = config.ffn_hidden
    layers = config.n_layers
    per_token_linear = layers * (4 * h * h + 2 * h * f)

    prefill_linear = per_token_linear * prompt_len * batch
    # attention scores + context for causal prefill: ~S^2/2 per layer per head dim
    prefill_attention = layers * prompt_len * prompt_len * h * batch

    decode_linear = per_token_linear * decode_len * batch
    # each decode step attends to the full prefix
    avg_context = prompt_len + decode_len / 2.0
    decode_attention = layers * decode_len * avg_context * 2 * h * batch

    return {
        "prefill_linear_macs": float(prefill_linear),
        "prefill_attention_macs": float(prefill_attention),
        "decode_linear_macs": float(decode_linear),
        "decode_attention_macs": float(decode_attention),
        "weight_bytes": float(config.weight_bytes()),
        "kv_bytes_end": float(config.kv_cache_bytes(prompt_len + decode_len, batch)),
    }
