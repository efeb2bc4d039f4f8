"""Per-rule true-positive / true-negative tests for simlint.

Each SIM rule is exercised twice: against its bad-example fixture
(must fire, at the marked lines) and against the good fixture plus
inline correct idioms (must stay silent).
"""

import os
import textwrap

from repro.analyze import analyze_paths, analyze_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint_fixture(name):
    findings, errors = analyze_paths([os.path.join(FIXTURES, name)])
    assert not errors
    return findings


def lint_snippet(source):
    return analyze_source(textwrap.dedent(source), path="snippet.py")


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# the good fixture is clean under every rule
# ---------------------------------------------------------------------------

def test_good_fixture_is_clean():
    assert lint_fixture("good_all.py") == []


# ---------------------------------------------------------------------------
# SIM002 — acquire/release pairing
# ---------------------------------------------------------------------------

class TestSim002:
    def test_bad_fixture_fires_three_ways(self):
        findings = lint_fixture("bad_sim002.py")
        assert codes(findings) == ["SIM002", "SIM002", "SIM002"]
        not_finally, never, unprotected = findings
        assert "not in a 'finally'" in not_finally.message
        assert "never released" in never.message
        assert "outside try/finally" in unprotected.message

    def test_canonical_critical_section_is_clean(self):
        assert lint_snippet("""
            def append(sim, mutex, log):
                token = mutex.acquire()
                try:
                    yield token
                except BaseException:
                    mutex.abort(token)
                    raise
                try:
                    log.append("entry")
                finally:
                    mutex.release(token)
        """) == []

    def test_wait_inside_protecting_finally_is_clean(self):
        assert lint_snippet("""
            def execute(sim, pool):
                req = pool.request()
                try:
                    yield req
                    yield sim.timeout(1.0)
                finally:
                    pool.release(req)
        """) == []

    def test_indirect_wait_with_finally_release_is_clean(self):
        # _append_locked's shape: the wait goes through a helper, the
        # grant path releases in a finally.
        assert lint_snippet("""
            def append(sim, cpu, mutex, log):
                token = mutex.acquire()
                try:
                    yield from cpu.spinning(token)
                except BaseException:
                    mutex.abort(token)
                    raise
                try:
                    log.append("entry")
                finally:
                    mutex.release(token)
        """) == []


# ---------------------------------------------------------------------------
# SIM003 — nondeterminism
# ---------------------------------------------------------------------------

class TestSim003:
    def test_bad_fixture_fires_on_each_source(self):
        findings = lint_fixture("bad_sim003.py")
        assert codes(findings) == ["SIM003"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "random" in messages
        assert "wall clock" in messages or "wall-clock" in messages
        assert "deterministic order" in messages

    def test_random_stream_is_clean(self):
        assert lint_snippet("""
            def pick(stream, candidates):
                return stream.choice(sorted(candidates))
        """) == []

    def test_sorted_set_iteration_is_clean(self):
        assert lint_snippet("""
            def ordered(items):
                seen = set(items)
                return [x for x in sorted(seen)]
        """) == []

    def test_suppression_comment_silences_the_line(self):
        findings = lint_snippet("""
            import random  # simlint: ignore[SIM003]
        """)
        assert findings == []

    def test_blanket_suppression_silences_everything(self):
        findings = lint_snippet("""
            import random  # simlint: ignore
        """)
        assert findings == []

    def test_suppression_of_other_code_does_not_silence(self):
        findings = lint_snippet("""
            import random  # simlint: ignore[SIM007]
        """)
        assert codes(findings) == ["SIM003"]

    def test_set_comprehension_iteration_fires(self):
        findings = lint_snippet("""
            def spread(keys):
                out = []
                for k in {k for k in keys}:
                    out.append(k)
                return out
        """)
        assert codes(findings) == ["SIM003"]

    def test_datetime_now_fires(self):
        findings = lint_snippet("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        assert codes(findings) == ["SIM003"]


# ---------------------------------------------------------------------------
# SIM004 — swallowed interrupts
# ---------------------------------------------------------------------------

class TestSim004:
    def test_bad_fixture_fires_once(self):
        findings = lint_fixture("bad_sim004.py")
        assert codes(findings) == ["SIM004"]
        assert "swallows the kill signal" in findings[0].message

    def test_tail_position_swallow_is_clean(self):
        # The fire-and-forget idiom: swallowing at the generator's end
        # lets the process die cleanly.
        assert lint_snippet("""
            def send_close(backup, Interrupt):
                try:
                    yield from backup.call("close")
                except Interrupt:
                    pass
        """) == []

    def test_reraise_is_clean(self):
        assert lint_snippet("""
            def worker(sim, queue, Interrupt):
                while True:
                    request = yield queue.get()
                    try:
                        yield sim.timeout(request)
                    except Interrupt:
                        raise
        """) == []

    def test_cleanup_action_is_clean(self):
        assert lint_snippet("""
            def worker(sim, queue, Interrupt):
                while True:
                    request = yield queue.get()
                    try:
                        yield sim.timeout(request)
                    except Interrupt:
                        request.fail("crashed")
                        raise
        """) == []

    def test_swallow_with_code_after_try_fires(self):
        findings = lint_snippet("""
            def proc(sim, Interrupt):
                try:
                    yield sim.timeout(1.0)
                except Interrupt:
                    pass
                yield sim.timeout(2.0)
        """)
        assert codes(findings) == ["SIM004"]


# ---------------------------------------------------------------------------
# SIM005 — wall-clock vs simulated time
# ---------------------------------------------------------------------------

class TestSim005:
    def test_bad_fixture_fires_twice(self):
        findings = lint_fixture("bad_sim005.py")
        assert codes(findings) == ["SIM005", "SIM005"]
        messages = "\n".join(f.message for f in findings)
        assert "sim.now" in messages
        assert "time.sleep" in messages

    def test_timeout_scheduling_is_clean(self):
        assert lint_snippet("""
            def settle(sim, rounds):
                for _ in range(rounds):
                    yield sim.timeout(0.1)
        """) == []

    def test_single_delta_outside_loop_is_clean(self):
        # One-shot accounting (monitor.py's gauges) is fine; only the
        # accumulate-in-a-loop shape is the bug.
        assert lint_snippet("""
            class Gauge:
                def set(self, value):
                    self._weighted += self.value * (self.sim.now - self._last)
                    self.value = value
        """) == []


# ---------------------------------------------------------------------------
# SIM006 — torn read-modify-write across a yield
# ---------------------------------------------------------------------------

class TestSim006:
    def test_bad_fixture_fires_per_torn_counter(self):
        findings = lint_fixture("bad_sim006.py")
        assert codes(findings) == ["SIM006"] * 4
        assert "self.total_bytes" in findings[0].message
        assert "no lock held" in findings[0].message
        # The repair-loop anti-idiom: a counter torn around the
        # re-replication `yield from`.
        assert "self.under_replicated" in findings[1].message
        # The batched-replication anti-idiom: the pending-bytes gauge
        # debited on both sides of the flush RPC.
        assert "self.pending_bytes" in findings[2].message
        # The index-maintenance anti-idiom: a torn "append data record
        # + append index record" pair around the replication yield.
        assert "self.entries_live" in findings[3].message

    def test_lock_held_across_yield_is_clean(self):
        assert lint_snippet("""
            class Gauge:
                def update(self, sim, mutex):
                    token = mutex.acquire()
                    try:
                        yield token
                    except BaseException:
                        mutex.abort(token)
                        raise
                    try:
                        self.value += 1
                        yield sim.timeout(0.01)
                        self.value += 1
                    finally:
                        mutex.release(token)
        """) == []

    def test_exclusive_branches_are_clean(self):
        assert lint_snippet("""
            class Gauge:
                def update(self, sim, flag):
                    if flag:
                        self.value += 1
                        yield sim.timeout(0.01)
                    else:
                        yield sim.timeout(0.02)
                        self.value -= 1
        """) == []

    def test_single_write_is_clean(self):
        assert lint_snippet("""
            class Gauge:
                def update(self, sim):
                    yield sim.timeout(0.01)
                    self.value += 1
        """) == []

    def test_plain_data_generator_is_not_analyzed(self):
        # A data generator never suspends a process: writes around its
        # yields are ordinary iteration state.
        assert lint_snippet("""
            class Walker:
                def ancestors(self, parents, node):
                    self.steps += 1
                    cur = parents.get(node)
                    while cur is not None:
                        yield cur
                        cur = parents.get(cur)
                    self.steps += 1
        """) == []

    def test_disable_pragma_with_justification_silences(self):
        findings = lint_snippet("""
            class Gauge:
                def update(self, sim, nbytes):
                    self.value += nbytes
                    yield sim.timeout(0.01)
                    self.value += 1  # simlint: disable=SIM006 gauge
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# SIM007 — may-yield call from a non-generator
# ---------------------------------------------------------------------------

class TestSim007:
    def test_bad_fixture_fires_four_ways(self):
        findings = lint_fixture("bad_sim007.py")
        assert codes(findings) == ["SIM007"] * 4
        discarded, summed, iterated, bound = findings
        assert "discarded" in discarded.message
        assert "sum(...)" in summed.message
        assert "iterating" in iterated.message
        assert "never spawned or returned" in bound.message

    def test_spawned_and_returned_are_clean(self):
        assert lint_snippet("""
            def work(sim):
                yield sim.timeout(0.01)

            def wrapper(sim):
                return work(sim)

            def starter(sim):
                sim.process(wrapper(sim), name="w")
                return wrapper(sim)
        """) == []

    def test_forwarding_through_a_spawner_is_clean(self):
        assert lint_snippet("""
            def work(sim):
                yield sim.timeout(0.01)

            def launch(sim, coro):
                sim.process(coro, name="launched")

            def starter(sim):
                launch(sim, work(sim))
        """) == []

    def test_bound_then_spawned_is_clean(self):
        assert lint_snippet("""
            def work(sim):
                yield sim.timeout(0.01)

            def starter(sim):
                pending = work(sim)
                sim.process(pending, name="w")
        """) == []

    def test_discard_in_a_plain_function_fires(self):
        findings = lint_snippet("""
            def work(sim):
                yield sim.timeout(0.01)

            def starter(sim):
                work(sim)
        """)
        assert codes(findings) == ["SIM007"]

    def test_discard_inside_a_generator_fires(self):
        # A coroutine that calls another without 'yield from' drops it
        # just the same: the generator object is created and discarded.
        findings = lint_snippet("""
            def flush_segment(sim, disk):
                yield sim.timeout(0.01)
                yield from disk.write(10)

            def handle_close(sim, disk):
                flush_segment(sim, disk)
                yield sim.timeout(0.1)
        """)
        assert codes(findings) == ["SIM007"]
        assert "'flush_segment' is discarded" in findings[0].message

    def test_yield_from_is_clean(self):
        assert lint_snippet("""
            def work(sim):
                yield sim.timeout(1.0)

            def caller(sim):
                yield from work(sim)
        """) == []

    def test_sim_process_is_clean(self):
        assert lint_snippet("""
            def work(sim):
                yield sim.timeout(1.0)

            def caller(sim):
                sim.process(work(sim))
                yield sim.timeout(2.0)
        """) == []

    def test_ambiguous_name_is_not_flagged(self):
        # 'run' is defined both as a generator and a plain function:
        # too ambiguous to flag, SIM007 stays quiet.
        assert lint_snippet("""
            def run(sim):
                yield sim.timeout(1.0)

            class Engine:
                def run(self):
                    return 42

            def caller(sim):
                run(sim)
                yield sim.timeout(2.0)
        """) == []

    def test_plain_function_call_statement_is_clean(self):
        assert lint_snippet("""
            def note(log):
                log.append("x")

            def caller(sim, log):
                note(log)
                yield sim.timeout(1.0)
        """) == []


# ---------------------------------------------------------------------------
# finding ordering & rendering
# ---------------------------------------------------------------------------

def test_findings_are_deterministically_ordered():
    first = lint_fixture("bad_sim003.py")
    second = lint_fixture("bad_sim003.py")
    assert first == second
    assert first == sorted(first)


def test_render_is_path_line_col_code():
    finding = lint_fixture("bad_sim004.py")[0]
    rendered = finding.render()
    assert rendered.startswith(finding.path)
    assert f":{finding.line}:" in rendered
    assert "SIM004" in rendered


def test_the_whole_source_tree_is_clean():
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    paths = [os.path.join(repo_root, d) for d in ("src", "examples", "tools")]
    findings, errors = analyze_paths([p for p in paths if os.path.isdir(p)])
    assert not errors
    assert findings == [], "\n".join(f.render() for f in findings)
