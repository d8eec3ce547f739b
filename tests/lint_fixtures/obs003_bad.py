"""OBS003 bad fixture: instrumentation without the ``is not None`` guard."""


class Executor:
    def __init__(self, obs=None):
        self._obs = obs

    def on_execute(self, seq, now):
        # Unguarded: untraced runs receive None here and crash (or get
        # handed a live recorder, killing zero-cost-off).
        self._obs.begin_span("execute", seq, now, "executor")  # <- OBS003

    def on_done(self, seq, now):
        if self._obs is None:
            pass  # guard shape the rule does NOT accept (no early exit)
        self._obs.end_span("execute", seq, now)  # <- OBS003

    def on_reassigned(self, obs, seq, now):
        if obs is not None:
            obs.begin_span("execute", seq, now, "executor")  # guarded: fine
        obs = self._fresh()
        obs.end_span("execute", seq, now)  # <- OBS003 (reassigned after guard)

    def _trace(self, category, now):
        self._obs.record(now, category, "executor")  # <- OBS003

    def _fresh(self):
        return None
