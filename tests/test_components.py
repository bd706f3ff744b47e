"""Unit tests for :class:`repro.core.ClockComponents`."""

from __future__ import annotations

import pytest

from repro.core import ClockComponents
from repro.exceptions import ComponentError
from repro.graph import BipartiteGraph, minimum_vertex_cover, paper_example_graph


class TestConstruction:
    def test_thread_and_object_components(self):
        components = ClockComponents(["T1", "T2"], ["O1"])
        assert components.size == 3
        assert components.thread_components == {"T1", "T2"}
        assert components.object_components == {"O1"}
        assert list(components) == ["T1", "T2", "O1"]
        assert len(components) == 3

    def test_duplicates_within_a_side_are_collapsed(self):
        components = ClockComponents(["T1", "T1"], ["O1", "O1"])
        assert components.size == 2

    def test_overlap_between_sides_rejected(self):
        with pytest.raises(ComponentError):
            ClockComponents(["X"], ["X"])

    def test_all_threads_and_all_objects(self):
        threads = ClockComponents.all_threads(["T1", "T2", "T3"])
        assert threads.size == 3
        assert threads.object_components == frozenset()
        objects = ClockComponents.all_objects(["O1", "O2"])
        assert objects.thread_components == frozenset()
        assert objects.size == 2

    def test_from_cover_classifies_sides(self):
        graph = paper_example_graph()
        cover = minimum_vertex_cover(graph)
        components = ClockComponents.from_cover(graph, cover)
        assert components.thread_components == {"T2"}
        assert components.object_components == {"O2", "O3"}

    def test_from_cover_rejects_unknown_vertex(self):
        graph = BipartiteGraph(edges=[("T1", "O1")])
        with pytest.raises(ComponentError):
            ClockComponents.from_cover(graph, {"T1", "mystery"})


class TestQueries:
    def test_membership_and_index(self):
        components = ClockComponents(["T1"], ["O1", "O2"])
        assert "T1" in components
        assert "O2" in components
        assert "T9" not in components
        assert components.index_of("T1") == 0
        assert components.index_of("O2") == 2
        with pytest.raises(ComponentError):
            components.index_of("T9")

    def test_side_predicates(self):
        components = ClockComponents(["T1"], ["O1"])
        assert components.is_thread_component("T1")
        assert not components.is_thread_component("O1")
        assert components.is_object_component("O1")
        assert not components.is_object_component("T1")

    def test_equality_and_hash_ignore_order(self):
        a = ClockComponents(["T1", "T2"], ["O1"])
        b = ClockComponents(["T2", "T1"], ["O1"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ClockComponents(["T1"], ["O1"])
        assert a != "something"

    def test_summary(self):
        components = ClockComponents(["T1"], ["O1", "O2"])
        assert components.summary() == {
            "size": 3,
            "thread_components": 1,
            "object_components": 2,
        }


class TestCoverage:
    def test_covers_pair(self):
        components = ClockComponents(["T1"], ["O1"])
        assert components.covers_pair("T1", "O9")
        assert components.covers_pair("T9", "O1")
        assert not components.covers_pair("T9", "O9")

    def test_covers_graph(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O1")])
        assert ClockComponents([], ["O1"]).covers_graph(graph)
        assert not ClockComponents(["T1"], []).covers_graph(graph)

    def test_validate_covers_graph(self):
        graph = BipartiteGraph(edges=[("T1", "O1"), ("T2", "O2")])
        ClockComponents(["T1", "T2"], []).validate_covers_graph(graph)
        with pytest.raises(ComponentError):
            ClockComponents(["T1"], []).validate_covers_graph(graph)


class TestExtension:
    def test_extended_appends_new_components(self):
        components = ClockComponents(["T1"], ["O1"])
        extended = components.extended(thread_components=["T2"], object_components=["O2"])
        assert extended.size == 4
        assert components.size == 2  # original untouched
        assert "T2" in extended and "O2" in extended
        # A pure append: new threads after the old thread block, new
        # objects at the end.  The kernel's count-based pads rely on it.
        assert extended.ordered == ("T1", "T2", "O1", "O2")

    def test_extended_ignores_existing(self):
        components = ClockComponents(["T1"], ["O1"])
        extended = components.extended(thread_components=["T1"], object_components=["O1"])
        assert extended == components
