"""Property-based tests: the R-tree agrees with brute force on any input."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load
from repro.rtree.tree import RTree

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@st.composite
def boxes(draw) -> AABB:
    x, y, z = draw(coord), draw(coord), draw(coord)
    dx, dy, dz = draw(extent), draw(extent), draw(extent)
    return AABB(x, y, z, x + dx, y + dy, z + dz)


item_lists = st.lists(boxes(), min_size=0, max_size=60)


@given(item_lists, boxes())
def test_dynamic_tree_matches_brute_force(item_boxes: list[AABB], query: AABB):
    tree = RTree(max_entries=4)
    for uid, mbr in enumerate(item_boxes):
        tree.insert(uid, mbr)
    tree.validate()
    expected = sorted(uid for uid, mbr in enumerate(item_boxes) if mbr.intersects(query))
    assert sorted(tree.range_query(query)) == expected


@given(item_lists, boxes())
def test_str_bulk_matches_brute_force(item_boxes: list[AABB], query: AABB):
    items = list(enumerate(item_boxes))
    tree = str_bulk_load(items, max_entries=5)
    tree.validate()
    expected = sorted(uid for uid, mbr in items if mbr.intersects(query))
    assert sorted(tree.range_query(query)) == expected


@given(item_lists, boxes())
def test_find_any_exhaustion_equals_range_query(item_boxes: list[AABB], query: AABB):
    """Repeated seeded search with exclusion enumerates exactly the result."""
    tree = str_bulk_load(list(enumerate(item_boxes)), max_entries=4)
    expected = {uid for uid, mbr in enumerate(item_boxes) if mbr.intersects(query)}
    found: set[int] = set()
    while True:
        uid, _ = tree.find_any_in_range(query, exclude=found)
        if uid is None:
            break
        assert uid not in found
        found.add(uid)
    assert found == expected


@given(st.lists(boxes(), min_size=1, max_size=40), st.data())
def test_delete_keeps_tree_consistent(item_boxes: list[AABB], data):
    tree = RTree(max_entries=4)
    for uid, mbr in enumerate(item_boxes):
        tree.insert(uid, mbr)
    # Delete a random subset, validating as we go.
    n_delete = data.draw(st.integers(min_value=0, max_value=len(item_boxes)))
    victims = data.draw(
        st.lists(
            st.sampled_from(range(len(item_boxes))),
            min_size=n_delete,
            max_size=n_delete,
            unique=True,
        )
    )
    for uid in victims:
        tree.delete(uid, item_boxes[uid])
        tree.validate()
    world = AABB(-100, -100, -100, 100, 100, 100)
    remaining = sorted(set(range(len(item_boxes))) - set(victims))
    assert sorted(tree.range_query(world)) == remaining
