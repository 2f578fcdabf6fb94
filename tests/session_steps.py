"""One-session steps over the engine's single step call.

The serving engine advances sessions only through
:meth:`~repro.serve.session.GenerationSession.prefill_step_batch`.  These
helpers give the session lifecycle tests one-line admit / resume / decode
steps on top of it, with each prompt (or resume replay) fed as one chunk.
"""

from repro.serve.session import GenerationSession


def _prefill(session, step):
    emitted = GenerationSession.prefill_step_batch(
        [session], [session.decoder.prefill_remaining], [], step
    )
    return emitted[session.request.request_id][0]


def admit(session, step):
    """Admit and prefill the whole prompt; returns the first token."""
    session.begin_admit(step)
    return _prefill(session, step)


def resume(session, step):
    """Re-prefill a preempted session's replay; returns its next token."""
    session.begin_resume(step)
    return _prefill(session, step)


def decode(session, step):
    """Run one decode row; returns the committed token."""
    emitted = GenerationSession.prefill_step_batch([], [], [session], step)
    return emitted[session.request.request_id][0]
