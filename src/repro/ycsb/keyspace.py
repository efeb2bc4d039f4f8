"""Key-choosing distributions, following YCSB's generators.

The paper uses the uniform distribution throughout ("in our case we use
uniform distribution", §III-C) and leaves other distributions as future
work — we implement the full YCSB set so that future-work experiments
can run too.
"""

from __future__ import annotations

from typing import Protocol

from repro.sim.distributions import RandomStream, ScrambledZipfianGenerator

__all__ = [
    "KeyChooser",
    "UniformKeyChooser",
    "ZipfianKeyChooser",
    "LatestKeyChooser",
    "SequentialKeyChooser",
    "make_key_chooser",
    "format_key",
    "parse_key",
    "KEY_PREFIX",
]


class KeyChooser(Protocol):
    """Anything that yields the next key to request."""

    def next_key(self) -> str:
        """The next key, per this distribution."""
        ...


# The YCSB record key prefix: a record's key is this followed by its
# index in decimal (``user42``).
KEY_PREFIX = "user"


def format_key(index: int) -> str:
    """YCSB record key format: the one place ``user{index}`` is spelt."""
    return f"{KEY_PREFIX}{index}"


def parse_key(key: str) -> int:
    """The record index of a :func:`format_key` key."""
    return int(key[len(KEY_PREFIX):])


class UniformKeyChooser:
    """Every record equally likely (the paper's setting)."""

    __slots__ = ("num_records", "_stream")

    def __init__(self, num_records: int, stream: RandomStream):
        if num_records < 1:
            raise ValueError("need at least one record")
        self.num_records = num_records
        self._stream = stream

    def next_key(self) -> str:
        """A uniformly random record key."""
        return format_key(self._stream.randint(0, self.num_records - 1))


class ZipfianKeyChooser:
    """YCSB's scrambled-zipfian: popularity is zipf, hot keys spread
    over the keyspace by hashing."""

    def __init__(self, num_records: int, stream: RandomStream):
        if num_records < 1:
            raise ValueError("need at least one record")
        self.num_records = num_records
        self._gen = ScrambledZipfianGenerator(num_records, stream=stream)

    def next_key(self) -> str:
        """A scrambled-zipfian record key."""
        return format_key(self._gen.next())


class LatestKeyChooser:
    """Recently-inserted records are hottest (YCSB workload D)."""

    def __init__(self, num_records: int, stream: RandomStream):
        if num_records < 1:
            raise ValueError("need at least one record")
        self.num_records = num_records
        self._stream = stream

    def record_insert(self) -> str:
        """Extend the keyspace by one record; returns its key."""
        key = format_key(self.num_records)
        self.num_records += 1
        return key

    def next_key(self) -> str:
        """A recency-biased record key."""
        # Exponential-ish recency bias, as YCSB's SkewedLatest.
        offset = int(self._stream.exponential(self.num_records / 10.0))
        index = max(0, self.num_records - 1 - offset)
        return format_key(index)


class SequentialKeyChooser:
    """Scan the keyspace in order (load phases, range workloads)."""

    def __init__(self, num_records: int, start: int = 0):
        if num_records < 1:
            raise ValueError("need at least one record")
        self.num_records = num_records
        self._next = start

    def next_key(self) -> str:
        """The next key in sequence, wrapping at num_records."""
        key = format_key(self._next % self.num_records)
        self._next += 1
        return key


def make_key_chooser(distribution: str, num_records: int,
                     stream: RandomStream) -> KeyChooser:
    """Factory matching YCSB's ``requestdistribution`` parameter."""
    if distribution == "uniform":
        return UniformKeyChooser(num_records, stream)
    if distribution == "zipfian":
        return ZipfianKeyChooser(num_records, stream)
    if distribution == "latest":
        return LatestKeyChooser(num_records, stream)
    if distribution == "sequential":
        return SequentialKeyChooser(num_records)
    raise ValueError(f"unknown request distribution {distribution!r}")
