"""The benchmark's workloads: seeded request mixes on the engine's step clock.

Each workload is one traffic mix served by one ``ServingEngine`` at ``B = 8``
slots.  Arrivals are engine steps (``Request.arrival_step``), never wall
time, so the batch built at each step is a pure function of the seed and a
slow host cannot turn into extra queueing.  Lengths and arrival gaps are
*stratified* -- an evenly spaced grid over the stated range, in one fixed
shuffled order -- and generated here rather than by ``repro.workloads``, so
every seed offers the same load and a change to the program cannot move it.
The seed picks token contents only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import MCBPEngine
from repro.core.bgpp import make_bgpp_predictor
from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    get_model_config,
    scaled_down_config,
)

SLOTS = 8
#: fixes the order of the stratified lengths and gaps; the run's seed does not
SHAPE_SEED = 0


@dataclass(frozen=True)
class Job:
    """One request as the client submits it."""

    request_id: str
    prompt: Tuple[int, ...]
    max_new_tokens: int
    arrival_step: int = 0
    priority: int = 0


@dataclass
class Setup:
    """A built model plus the per-workload serving objects around it."""

    model: QuantizedTransformer
    predictor: Optional[Callable] = None
    mcbp: Optional[MCBPEngine] = None


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    make_jobs: Callable[[np.random.Generator, int], List[Job]]
    #: engine steps between two probe slices (about 0.2 s of engine time)
    probe_every: int
    #: rounds a run serves at least, whatever ``--seconds`` says
    min_rounds: int = 1
    mcbp: bool = False
    bgpp: bool = False
    speculative: bool = False
    prefix_cache: bool = False
    priority_policy: bool = False
    prefill_token_budget: Optional[int] = None
    #: requests per run whose tokens are checked against solo generate()
    n_checked: int = 4


def _spread(lo: int, hi: int, n: int, salt: int = 0) -> np.ndarray:
    """``n`` lengths evenly covering ``[lo, hi]``, in one fixed shuffled order."""
    order = np.random.default_rng([SHAPE_SEED, salt]).permutation(n)
    return np.rint(np.linspace(lo, hi, n)).astype(np.int64)[order]


def _tokens(rng: np.random.Generator, vocab: int, n: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, vocab, size=n))


CHAT_REQUESTS = 120
CHAT_PROMPT = (16, 64)
CHAT_OUTPUT = (32, 128)
#: share of slot capacity the arrivals ask for; a request holds its slot for
#: about ``max_new_tokens`` steps, so capacity is SLOTS / mean output
CHAT_LOAD = 2 / 3


def _chat_jobs(rng, vocab):
    # open loop on the step clock: exponential gaps, stratified like the
    # lengths (the distribution's quantiles in one fixed order), so every
    # seed has the same bursts and the same backlog
    n = CHAT_REQUESTS
    mean_gap = sum(CHAT_OUTPUT) / 2 / SLOTS / CHAT_LOAD
    quantiles = -np.log1p(-(np.arange(n) + 0.5) / n) * mean_gap
    gaps = np.rint(quantiles[np.random.default_rng([SHAPE_SEED, 3]).permutation(n)])
    due = np.concatenate([[0], np.cumsum(gaps)[:-1]]).astype(np.int64)
    prompts = _spread(*CHAT_PROMPT, n, salt=1)
    outputs = _spread(*CHAT_OUTPUT, n, salt=2)
    return [
        Job(f"chat{i}", _tokens(rng, vocab, int(prompts[i])), int(outputs[i]), int(due[i]))
        for i in range(n)
    ]


RAG_TENANTS = 4
RAG_PER_TENANT = 9
RAG_HEAD = 384
#: a quarter of the requests are high priority and arrive mid-burst, one
#: every RAG_URGENT_GAP steps from RAG_URGENT_FIRST on
RAG_URGENT_FIRST = 12
RAG_URGENT_GAP = 4
#: each tenant's first question has a page-aligned prompt (head plus this
#: tail) and its last request asks it again: the repeat maps every prompt
#: page but the last row, so its first append copies a shared page
RAG_REPEATED_TAIL = 32


def _rag_jobs(rng, vocab):
    heads = [_tokens(rng, vocab, RAG_HEAD) for _ in range(RAG_TENANTS)]
    n = RAG_TENANTS * RAG_PER_TENANT
    tails = _spread(16, 64, n, salt=4)
    tails[:RAG_TENANTS] = RAG_REPEATED_TAIL
    outputs = _spread(8, 16, n, salt=5)
    prompts = []
    jobs = []
    urgent = 0
    for i in range(n):
        # tenants take turns and the urgent slot rotates among them, so every
        # seed has the same hit structure
        tenant = i % RAG_TENANTS
        if i >= n - RAG_TENANTS:
            prompts.append(prompts[tenant])
        else:
            prompts.append(heads[tenant] + _tokens(rng, vocab, int(tails[i])))
        high = tenant == (i // RAG_TENANTS) % RAG_TENANTS
        arrival = RAG_URGENT_FIRST + RAG_URGENT_GAP * urgent if high else 0
        urgent += high
        jobs.append(
            Job(f"rag{i}", prompts[i], int(outputs[i]), arrival_step=arrival, priority=int(high))
        )
    return jobs


LLAMA_REQUESTS = 8


def _llama_jobs(rng, vocab):
    prompts = _spread(48, 96, LLAMA_REQUESTS, salt=6)
    outputs = _spread(48, 96, LLAMA_REQUESTS, salt=7)
    return [
        Job(f"llama{i}", _tokens(rng, vocab, int(prompts[i])), int(outputs[i]))
        for i in range(LLAMA_REQUESTS)
    ]


#: acceptance differs a lot between motifs; 224 of them keep the burst's
#: step count within a few per cent across seeds
SPEC_REQUESTS = 224
SPEC_MOTIF = 4
SPEC_REPEATS = 3
SPEC_OUTPUT = 96


def _spec_jobs(rng, vocab):
    # cyclic motif prompts: greedy decode of the tiny model settles into the
    # prompt's cycle, which the self-extending n-gram drafter echoes
    return [
        Job(f"spec{i}", _tokens(rng, vocab, SPEC_MOTIF) * SPEC_REPEATS, SPEC_OUTPUT)
        for i in range(SPEC_REQUESTS)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chat-small",
            model="small",
            make_jobs=_chat_jobs,
            probe_every=24,
            prefix_cache=True,
        ),
        Workload(
            "rag-prefix-small",
            model="small",
            make_jobs=_rag_jobs,
            probe_every=5,
            min_rounds=3,
            prefix_cache=True,
            priority_policy=True,
            prefill_token_budget=64,
        ),
        Workload(
            "mcbp-llama-mini",
            model="llama-mini",
            make_jobs=_llama_jobs,
            probe_every=2,
            min_rounds=2,
            mcbp=True,
            bgpp=True,
            n_checked=2,
        ),
        Workload(
            "spec-codegen-tiny",
            model="tiny",
            make_jobs=_spec_jobs,
            probe_every=32,
            min_rounds=2,
            speculative=True,
        ),
    )
}


def model_config(name: str):
    if name == "llama-mini":
        return scaled_down_config("Llama7B", 8)
    return get_model_config(name)


def set_up(workload: Workload, between: Callable[[], None]) -> Setup:
    """Everything a server pays once per process before serving.

    Model build and calibration, and on the MCBP path ``bind_engine`` (BSTC
    encode) plus the first BSTC plane decode of every weight matrix.
    ``between`` runs between phases; the benchmark puts a probe slice there.
    """
    base = TransformerModel(model_config(workload.model), seed=0)
    between()
    model = QuantizedTransformer(base, seed=1)
    setup = Setup(model=model)
    if workload.mcbp:
        between()
        mcbp = MCBPEngine()
        model.bind_engine(mcbp)
        for name, weight in model.quantized_weight_matrices().items():
            between()
            mcbp.matmul(name, np.zeros((weight.shape[1], 1), dtype=np.int64))
        mcbp.reset_stats()
        setup.mcbp = mcbp
    if workload.bgpp:
        setup.predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
    return setup
