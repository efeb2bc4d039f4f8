"""Unit tests for YCSB key choosers."""

import pytest

from repro.sim.distributions import RandomStream
from repro.ycsb.keyspace import (
    LatestKeyChooser,
    SequentialKeyChooser,
    UniformKeyChooser,
    ZipfianKeyChooser,
    format_key,
    make_key_chooser,
)


def stream():
    return RandomStream(42, "keys")


class TestUniform:
    def test_keys_in_range(self):
        chooser = UniformKeyChooser(100, stream())
        for _ in range(1000):
            key = chooser.next_key()
            assert key.startswith("user")
            assert 0 <= int(key[4:]) < 100

    def test_roughly_uniform(self):
        chooser = UniformKeyChooser(10, stream())
        counts = {}
        for _ in range(10000):
            counts[chooser.next_key()] = counts.get(chooser.next_key(), 0) + 1
        assert len(counts) == 10

    def test_needs_records(self):
        with pytest.raises(ValueError):
            UniformKeyChooser(0, stream())


class TestZipfian:
    def test_keys_in_range(self):
        chooser = ZipfianKeyChooser(1000, stream())
        for _ in range(2000):
            assert 0 <= int(chooser.next_key()[4:]) < 1000

    def test_skewed(self):
        chooser = ZipfianKeyChooser(1000, stream())
        counts = {}
        for _ in range(20000):
            key = chooser.next_key()
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts.values())
        assert hottest > 20000 / 1000 * 5  # much hotter than uniform


class TestLatest:
    def test_biased_toward_recent(self):
        chooser = LatestKeyChooser(1000, stream())
        indexes = [int(chooser.next_key()[4:]) for _ in range(5000)]
        assert sum(indexes) / len(indexes) > 700  # skews high (recent)

    def test_insert_extends_keyspace(self):
        chooser = LatestKeyChooser(10, stream())
        new_key = chooser.record_insert()
        assert new_key == "user10"
        assert chooser.num_records == 11


class TestSequential:
    def test_wraps_around(self):
        chooser = SequentialKeyChooser(3)
        keys = [chooser.next_key() for _ in range(5)]
        assert keys == ["user0", "user1", "user2", "user0", "user1"]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("uniform", UniformKeyChooser),
        ("zipfian", ZipfianKeyChooser),
        ("latest", LatestKeyChooser),
        ("sequential", SequentialKeyChooser),
    ])
    def test_factory_dispatch(self, name, cls):
        chooser = make_key_chooser(name, 10, stream())
        assert isinstance(chooser, cls)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            make_key_chooser("pareto", 10, stream())

    def test_format_key_matches_preload(self):
        from repro.cluster.deployment import default_key
        assert format_key(7) == default_key(7)


class TestIndexPath:
    @pytest.mark.parametrize("distribution",
                             ["uniform", "zipfian", "latest", "sequential"])
    def test_index_path_draws_what_next_key_drew(self, distribution):
        by_key_stream, by_index_stream = stream(), stream()
        by_key = make_key_chooser(distribution, 1000, by_key_stream)
        by_index = make_key_chooser(distribution, 1000, by_index_stream)
        keys = [by_key.next_key() for _ in range(2000)]
        indices = [by_index.next_index() for _ in range(2000)]
        assert [format_key(i) for i in indices] == keys
        # Both streams were left at the same draw.
        assert by_key_stream.uniform() == by_index_stream.uniform()
