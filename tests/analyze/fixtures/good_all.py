"""True-negative fixture: every SIM rule's *correct* idiom, plus one
demonstratively suppressed line.  simlint must report nothing here.

Never imported or executed — only linted.
"""

import random  # simlint: ignore[SIM003] — suppression demo (see ANALYSIS.md)


def flush_segment(sim, disk):
    """A simulated-process body: writes, then settles."""
    yield sim.timeout(0.01)
    yield from disk.write(10)


def handle_close(sim, disk):
    # SIM007-clean: consumed with yield from / started as a process.
    yield from flush_segment(sim, disk)
    sim.process(flush_segment(sim, disk), name="background-flush")


def append(sim, mutex, log):
    # SIM002-clean: the wait aborts on interrupt, the release is in a
    # finally — the kernel's canonical critical-section shape.
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


def choose_backups(stream, candidates, rf):
    # SIM003-clean: seeded stream, deterministic iteration order.
    pool = set(candidates)
    ordered = sorted(pool)
    return stream.sample(ordered, rf)


def send_close(sim, backup, Interrupt):
    # SIM004-clean: swallowing at the tail of a fire-and-forget process
    # just lets the generator end — the kernel's clean-death idiom.
    try:
        yield from backup.call("replicate_close")
    except Interrupt:
        pass


def worker_loop(sim, queue, Interrupt):
    # SIM004-clean: the interrupt is re-raised after cleanup.
    while True:
        request = yield queue.get()
        try:
            yield sim.timeout(request)
        except Interrupt:
            queue.put(request)
            raise


def settle(sim, interval, rounds):
    # SIM005-clean: time advances by scheduling, not clock arithmetic.
    for _ in range(rounds):
        yield sim.timeout(interval)
    return sim.now


class Gauge:
    def guarded_update(self, sim, mutex):
        # SIM006-clean: the lock is held across the yield between the
        # two writes, so nothing else can touch ``self.value``.
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

    def exclusive_update(self, sim, flag):
        # SIM006-clean: the two writes sit on opposite arms of the same
        # if — they can never bracket one pass over the yield.
        if flag:
            self.value += 1
            yield sim.timeout(0.01)
        else:
            yield sim.timeout(0.02)
            self.value -= 1


class RepairQueue:
    def drain(self, sim, replace):
        # SIM006-clean (the repair-loop idiom): the work-queue set is
        # snapshot before each pass and mutated only by single-step
        # discards that never bracket a yield; the one monotonic
        # progress counter that does accumulate across the per-item
        # yield carries the documented gauge suppression.
        while True:
            pending = sorted(self.under_replicated)
            if not pending:
                return
            for item in pending:
                done = yield from replace(item)
                if done:
                    self.under_replicated.discard(item)
                    self.repaired += 1  # simlint: disable=SIM006 gauge
            yield sim.timeout(0.1)


class IndexedAppender:
    def write_indexed(self, sim, mutex, replicate, record, entries):
        # SIM006-clean (the index-maintenance idiom): the data record
        # and its index entries are appended together under the log
        # lock *before* the replication yield, and the post-RPC write
        # lands on a different field (the replicated watermark) — no
        # field is written on both sides of an unlocked yield.
        token = mutex.acquire()
        try:
            yield token
        except BaseException:
            mutex.abort(token)
            raise
        try:
            self.entries_live += 1 + len(entries)
        finally:
            mutex.release(token)
        yield from replicate(record)
        self.replicated_upto = self.replicated_upto + 1


class BatchedReplicator:
    def flush_once(self, sim, ship):
        # SIM006-clean (the batched-replication idiom): the pending
        # batch is snapshot-and-cleared in one single step before the
        # replication RPC, and the post-RPC write lands on a *different*
        # field (the shipped watermark) — no field is written on both
        # sides of the yield.
        batch, self.pending = self.pending, []
        if not batch:
            return
        yield from ship(batch)
        self.shipped_upto = self.shipped_upto + len(batch)


def launch(sim, coro):
    # A spawner: forwards its argument into the kernel.
    sim.process(coro, name="launched")


def start_flush(sim, disk):
    # SIM007-clean: every coroutine is spawned (directly or through the
    # 'launch' spawner) or returned for the caller to drive.
    sim.process(flush_segment(sim, disk), name="flush")
    launch(sim, flush_segment(sim, disk))
    return flush_segment(sim, disk)

