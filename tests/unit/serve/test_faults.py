"""Unit tests for deterministic fault injection, the ``health`` op and
cold-work load shedding.

The pure parts (rules, plans, the injector's trigger/determinism
semantics) run without a server; the integration half drives a real
in-loop :class:`ReasoningServer` with a fault plan and checks each
fault kind produces exactly its documented wire behaviour.
"""

import asyncio
import json

import pytest

from repro.serve import (
    AsyncClient,
    ErrorCode,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ReasoningServer,
    ServeConfig,
    ServerError,
)

from tests.unit.serve.gated import GatedServer

SCHEMA = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])"
MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
IMPLIED_FD = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
IMPLIED_MVD = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])"


def run(coroutine):
    return asyncio.run(coroutine)


def plan_of(*rules, seed=0):
    return FaultPlan(rules, seed=seed)


class TestFaultRule:
    def test_validation_rejects_malformed_rules(self):
        bad = [
            dict(op="conjure", kind="delay", seconds=0.1),  # unknown op
            dict(kind="mangle"),                            # unknown kind
            dict(kind="error", code="bad_params"),          # not retryable
            dict(kind="error"),                             # code required
            dict(kind="delay"),                             # seconds required
            dict(kind="delay", seconds=0.0),                # must be > 0
            dict(kind="error", code="timeout", seconds=1.0),  # wrong field
            dict(kind="delay", seconds=0.1, code="timeout"),  # wrong field
            dict(kind="drop", when="sideways"),             # bad when
            dict(kind="drop", when="pre", p=0.5, every=2),  # p xor every
            dict(kind="drop", when="pre", p=0.0),           # p out of range
            dict(kind="drop", when="pre", p=1.5),           # p out of range
            dict(kind="drop", when="pre", every=0),         # every >= 1
            dict(kind="drop", when="pre", times=0),         # times >= 1
            dict(kind="drop", when="pre", after=-1),        # after >= 0
        ]
        for spec in bad:
            with pytest.raises(ValueError):
                FaultRule(**spec)

    def test_from_dict_rejects_unknown_keys_and_missing_kind(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"kind": "delay", "seconds": 0.1,
                                 "colour": "red"})
        with pytest.raises(ValueError, match="needs a 'kind'"):
            FaultRule.from_dict({"op": "ping"})
        with pytest.raises(ValueError, match="must be a JSON object"):
            FaultRule.from_dict(["kind", "delay"])

    def test_round_trip_through_dict(self):
        specs = [
            {"op": "implies", "kind": "error", "code": "overloaded", "p": 0.25},
            {"op": "*", "kind": "delay", "seconds": 0.01, "every": 7},
            {"op": "closure", "kind": "truncate", "every": 3, "times": 5},
            {"op": "ping", "kind": "drop", "when": "post", "after": 2},
        ]
        for spec in specs:
            rule = FaultRule.from_dict(spec)
            assert rule.as_dict() == spec
            assert FaultRule.from_dict(rule.as_dict()).as_dict() == spec


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan.from_json(json.dumps({
            "seed": 42,
            "rules": [{"op": "implies", "kind": "error",
                       "code": "overloaded", "p": 0.1},
                      {"op": "*", "kind": "delay",
                       "seconds": 0.005, "every": 7}],
        }))
        assert plan.seed == 42 and len(plan.rules) == 2
        assert FaultPlan.from_json(plan.to_json()).to_json() == plan.to_json()

    def test_needs_at_least_one_rule(self):
        with pytest.raises(ValueError, match="at least one rule"):
            FaultPlan.from_json('{"seed": 1, "rules": []}')

    def test_rejects_non_json_and_wrong_shapes(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="object with 'rules'"):
            FaultPlan.from_json('{"seed": 1}')
        with pytest.raises(ValueError, match="object with 'rules'"):
            FaultPlan.from_json('[1, 2]')

    def test_load_inline_json_or_file(self, tmp_path):
        spec = '{"seed": 3, "rules": [{"kind": "drop", "when": "pre"}]}'
        inline = FaultPlan.load(spec)
        assert inline.seed == 3
        path = tmp_path / "plan.json"
        path.write_text(spec, encoding="utf-8")
        assert FaultPlan.load(str(path)).to_json() == inline.to_json()
        with pytest.raises(ValueError, match="not found"):
            FaultPlan.load(str(tmp_path / "missing.json"))


class TestInjectorSemantics:
    def test_every_fires_on_each_kth_match(self):
        injector = FaultInjector(plan_of(
            {"op": "ping", "kind": "drop", "when": "pre", "every": 3}))
        decisions = [injector.decide("ping") is not None for _ in range(9)]
        assert decisions == [False, False, True] * 3

    def test_after_skips_then_every_counts_from_there(self):
        injector = FaultInjector(plan_of(
            {"op": "ping", "kind": "drop", "when": "pre",
             "every": 2, "after": 3}))
        decisions = [injector.decide("ping") is not None for _ in range(9)]
        # matches 1..3 skipped; then fires on the 2nd, 4th, 6th match past
        # the skip window (matched - after ≡ 0 mod 2)
        assert decisions == [False, False, False,
                             False, True, False, True, False, True]

    def test_times_caps_total_firings(self):
        injector = FaultInjector(plan_of(
            {"op": "ping", "kind": "drop", "when": "pre",
             "every": 1, "times": 2}))
        decisions = [injector.decide("ping") is not None for _ in range(5)]
        assert decisions == [True, True, False, False, False]

    def test_non_matching_ops_do_not_advance_counters(self):
        injector = FaultInjector(plan_of(
            {"op": "implies", "kind": "error", "code": "timeout", "every": 2}))
        assert injector.decide("implies") is None
        for _ in range(10):
            assert injector.decide("ping") is None
        action = injector.decide("implies")  # 2nd *matching* request
        assert action is not None and action.code == "timeout"

    def test_same_seed_same_decisions(self):
        spec = {"op": "*", "kind": "error", "code": "overloaded", "p": 0.35}
        ops = ["ping", "implies", "add", "closure"] * 25
        injector = FaultInjector(plan_of(spec, seed=9))
        first = [injector.decide(op) is not None for op in ops]
        # rebuild from JSON to prove the firing pattern survives the wire
        rebuilt = FaultInjector(
            FaultPlan.from_json(plan_of(spec, seed=9).to_json()))
        second = [rebuilt.decide(op) is not None for op in ops]
        assert first == second
        assert any(first) and not all(first)  # p actually discriminates

    def test_different_seed_different_decisions(self):
        spec = {"op": "*", "kind": "error", "code": "overloaded", "p": 0.5}
        one, two = (FaultInjector(plan_of(spec, seed=seed))
                    for seed in (1, 2))
        a = [one.decide("ping") is not None for _ in range(64)]
        b = [two.decide("ping") is not None for _ in range(64)]
        assert a != b

    def test_rule_streams_are_independent(self):
        """A rule's stream is keyed on (plan seed, rule index), so
        appending rules behind never perturbs the rules in front — and
        first-fire-wins masks later rules without stalling their
        counters or streams."""
        lead = {"op": "ping", "kind": "error", "code": "timeout", "p": 0.4}
        alone = FaultInjector(plan_of(lead, seed=5))
        lone_fires = [alone.decide("ping") is not None for _ in range(80)]

        extra = {"op": "ping", "kind": "delay", "seconds": 0.001, "p": 0.4}
        stacked = FaultInjector(plan_of(lead, extra, seed=5))
        stacked_fires = []
        for _ in range(80):
            action = stacked.decide("ping")
            stacked_fires.append(action is not None
                                 and action.kind == "error")
        assert stacked_fires == lone_fires
        # the appended rule kept matching (and firing) behind the mask
        assert stacked._states[1].matched == 80
        assert stacked._states[1].fired > 0

    def test_first_fire_wins_and_is_logged(self):
        injector = FaultInjector(plan_of(
            {"op": "ping", "kind": "delay", "seconds": 0.001, "every": 1},
            {"op": "ping", "kind": "drop", "when": "pre", "every": 1}))
        action = injector.decide("ping")
        assert action.kind == "delay" and action.rule == 0
        assert injector.injected == [("ping", "delay")]
        assert injector.stats() == {"injected": 1, "delay": 1}


# --------------------------------------------------------------------------
# Wire behaviour of each fault kind against a live in-loop server.
# --------------------------------------------------------------------------


def _server(plan=None, **overrides):
    config = ServeConfig(idle_ttl=None, workers=0, fault_plan=plan,
                         **overrides)
    return ReasoningServer(config)


class TestInjectedFaultsOnTheWire:
    def test_error_fault_answers_retryably_without_executing(self):
        plan = plan_of({"op": "add", "kind": "error", "code": "overloaded",
                        "every": 1, "times": 1})

        async def scenario():
            async with _server(plan) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    with pytest.raises(ServerError) as info:
                        await client.add("pub", IMPLIED_FD)
                    assert info.value.code == ErrorCode.OVERLOADED
                    assert info.value.retryable
                    assert "injected fault" in info.value.message
                    # the faulted add never executed: Σ is untouched and
                    # the op was never counted as a served request
                    metrics = await client.metrics("pub")
                    assert metrics["sessions"]["pub"]["sigma"] == 1
                    assert server.counters["serve.requests.add"] == 0
                    assert server.counters["serve.fault.injected"] == 1
                    assert server.counters["serve.fault.error"] == 1
                    # the rule is spent; the retry lands
                    added = await client.add("pub", IMPLIED_FD)
                    assert added["added"] is True

        run(scenario())

    def test_delay_fault_slows_but_still_answers(self):
        plan = plan_of({"op": "ping", "kind": "delay", "seconds": 0.02,
                        "every": 1, "times": 1})

        async def scenario():
            async with _server(plan) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    assert (await client.ping())["pong"] is True
                    assert loop.time() - started >= 0.02
                    assert server.counters["serve.fault.delay"] == 1

        run(scenario())

    def test_drop_pre_closes_before_executing(self):
        plan = plan_of({"op": "implies", "kind": "drop", "when": "pre",
                        "every": 1, "times": 1})

        async def scenario():
            async with _server(plan) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    with pytest.raises(ConnectionError):
                        await client.implies("pub", IMPLIED_FD)
                    assert server.counters["serve.requests.implies"] == 0
                    assert server.counters["serve.fault.drop"] == 1
                # a fresh connection works; the session survived
                async with await AsyncClient.connect(host, port) as client:
                    assert await client.implies("pub", IMPLIED_FD) is True

        run(scenario())

    def test_truncate_tears_the_response_frame(self):
        plan = plan_of({"op": "closure", "kind": "truncate",
                        "every": 1, "times": 1})

        async def scenario():
            async with _server(plan) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    with pytest.raises(ConnectionError):
                        await client.closure("pub", "Pubcrawl(Person)")
                    # truncate executes first — the request was served,
                    # only its response frame was torn
                    assert server.counters["serve.requests.closure"] == 1
                    assert server.counters["serve.fault.truncate"] == 1
                async with await AsyncClient.connect(host, port) as client:
                    closure = await client.closure("pub", "Pubcrawl(Person)")
                    assert "Person" in closure

        run(scenario())

    def test_drop_post_delivers_then_closes(self):
        plan = plan_of({"op": "add", "kind": "drop", "when": "post",
                        "every": 1, "times": 1})

        async def scenario():
            async with _server(plan) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    # the faulted request itself succeeds end-to-end...
                    added = await client.add("pub", IMPLIED_MVD)
                    assert added["added"] is True
                    assert server.counters["serve.fault.drop"] == 1
                    # ...and only the *next* use of the connection fails
                    with pytest.raises(ConnectionError):
                        await asyncio.wait_for(client.ping(), timeout=5)

        run(scenario())


class TestHealthOp:
    def test_health_reports_ok_and_basic_gauges(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    health = await client.health()
                    assert health["status"] == "ok"
                    assert health["sessions"] == 0
                    assert health["draining"] is False
                    assert health["shedding"] is False
                    assert "faults" not in health
                    assert server.counters["serve.requests.health"] == 1

        run(scenario())

    def test_health_bypasses_backpressure_and_faults(self):
        plan = plan_of({"op": "ping", "kind": "drop", "when": "pre",
                        "every": 1})
        config = ServeConfig(max_inflight=1, max_pending_per_conn=4,
                             request_timeout=None, idle_ttl=None, workers=0,
                             fault_plan=plan)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as probe:
                    # the plan drops every ping, but health is answered
                    # before injection is even consulted
                    health = await probe.health()
                    assert health["status"] == "ok"
                    assert health["faults"] == {"injected": 0}
                    # saturate the server: health still answers while a
                    # normal request is rejected overloaded
                    stuck = asyncio.ensure_future(
                        probe.request("metrics", gated=True))
                    while server._inflight < 1:
                        await asyncio.sleep(0.005)
                    health = await probe.health()
                    assert health["inflight"] == 1
                    with pytest.raises(ServerError) as info:
                        await probe.request("metrics")
                    assert info.value.code == ErrorCode.OVERLOADED
                    server.gate.set()
                    assert "server" in (await stuck)

        run(scenario())

    def test_health_answers_while_draining(self):
        config = ServeConfig(request_timeout=None, idle_ttl=None, workers=0,
                             drain_timeout=10.0)

        async def scenario():
            server = GatedServer(config)
            host, port = await server.start()
            client = await AsyncClient.connect(host, port)
            try:
                inflight = asyncio.ensure_future(
                    client.request("ping", gated=True))
                while server._inflight < 1:
                    await asyncio.sleep(0.005)
                stopping = asyncio.ensure_future(server.shutdown())
                while not server._draining:
                    await asyncio.sleep(0.005)
                health = await client.health()
                assert health["status"] == "draining"
                assert health["draining"] is True
                with pytest.raises(ServerError) as info:
                    await client.ping()
                assert info.value.code == ErrorCode.SHUTTING_DOWN
                server.gate.set()
                assert (await inflight)["pong"] is True
                await stopping
            finally:
                await client.close()
                await server.shutdown()

        run(scenario())


class TestColdWorkShedding:
    def test_cold_closures_shed_hot_hits_served(self):
        config = ServeConfig(max_inflight=4, request_timeout=None,
                             idle_ttl=None, workers=0, shed_cold_at=0.5)

        async def scenario():
            async with GatedServer(config) as server:
                host, port = server.address
                async with await AsyncClient.connect(host, port) as client:
                    await client.open("pub", SCHEMA, [MVD])
                    # warm one closure while the server is quiet
                    assert "Person" in await client.closure(
                        "pub", "Pubcrawl(Person)")

                    # park two gated requests: inflight hits the 0.5·4
                    # shedding threshold but stays under max_inflight
                    stuck = [asyncio.ensure_future(
                        client.request("ping", gated=True)) for _ in range(2)]
                    while server._inflight < 2:
                        await asyncio.sleep(0.005)

                    # cold lhs: shed with the retryable overload code
                    with pytest.raises(ServerError) as info:
                        await client.closure("pub", "Pubcrawl(Visit[λ])")
                    assert info.value.code == ErrorCode.OVERLOADED
                    assert info.value.retryable
                    assert "shedding" in info.value.message
                    assert server.counters["serve.shed_cold"] == 1

                    # hot lhs (implies shares the warmed mask): still served
                    assert await client.implies("pub", IMPLIED_FD) is True
                    health = await client.health()
                    assert health["status"] == "shedding"
                    assert health["shedding"] is True

                    server.gate.set()
                    for result in await asyncio.gather(*stuck):
                        assert result["pong"] is True
                    # capacity back: the cold lhs computes now
                    closure = await client.closure("pub", "Pubcrawl(Visit[λ])")
                    assert closure
                    assert (await client.health())["status"] == "ok"

        run(scenario())

    def test_shedding_disabled_by_default(self):
        async def scenario():
            async with _server() as server:
                assert server._shedding_cold() is False

        run(scenario())
