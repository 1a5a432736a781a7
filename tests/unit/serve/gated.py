"""A server whose gated requests wait for the test: shared test double."""

import asyncio

from repro.serve import ReasoningServer


class GatedServer(ReasoningServer):
    """Requests with ``params.gated`` wait until the test opens the
    gate — the deterministic stand-in for a request that waits (an
    unmet read fence).  They take the parked path, so they count
    against ``max_inflight`` and ``max_pending_per_conn``."""

    def __init__(self, config):
        super().__init__(config)
        self.gate = asyncio.Event()

    def _dispatch(self, request):
        if request.params.get("gated"):
            return self._after_gate(request)
        return super()._dispatch(request)

    async def _after_gate(self, request):
        await self.gate.wait()
        return super()._dispatch(request)
