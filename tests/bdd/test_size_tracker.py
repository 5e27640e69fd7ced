"""Exactness of the incrementally kept semantic size (``SizeTracker``).

The tracker must read exactly ``manager.size(root)`` after any sequence of
level swaps whose band was reported, and sifting by it must take the same
decisions as sifting by a full traversal after every move.
"""

import random
from pathlib import Path

import pytest

from repro.bdd import BddManager, SizeTracker, sift, sift_to_convergence
from repro.bdd import sifting
from repro.bdd.sifting import _block_list, _swap_adjacent_blocks
from repro.difftest.generator import generate_case
from repro.frontend import compile_source
from repro.synthesis import synthesize_reactive

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "rsl").glob("*.rsl")
)


def random_root(m, variables, rng, cubes=7):
    """An OR of random cubes over ``variables``, maybe XORed and negated."""
    f = m.false
    for _ in range(cubes):
        cube = m.true
        for v in variables:
            choice = rng.randrange(4)
            if choice == 0:
                cube = cube & m.var(v)
            elif choice == 1:
                cube = cube & m.nvar(v)
        f = f | cube
    if rng.random() < 0.5:
        f = f ^ (m.var(rng.choice(variables)) & m.var(rng.choice(variables)))
    return ~f if rng.random() < 0.5 else f


class CheckedTracker(SizeTracker):
    """A tracker that checks every read against a full traversal."""

    reads = 0

    def __init__(self, manager, root):
        super().__init__(manager, root)
        self.root = root

    def size(self):
        got = super().size()
        assert got == self._manager.size(self.root)
        CheckedTracker.reads += 1
        return got


class TestTrackerExactness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_swaps(self, seed):
        rng = random.Random(seed)
        m = BddManager()
        n_vars = rng.randint(3, 9)
        for _ in range(n_vars):
            m.new_var()
        root = random_root(m, range(n_vars), rng)
        # A second root: on odd seeds it covers only the bottom variables,
        # so the interaction matrix turns some swaps into pure relabels.
        cut = n_vars // 2 if seed % 2 else 0
        other = random_root(m, range(cut, n_vars), rng)
        if seed % 2:
            root = random_root(m, range(cut), rng)
        interaction = m.interaction_pairs() if seed % 2 else None
        tracker = SizeTracker(m, root)
        assert tracker.size() == m.size(root)
        for _ in range(60):
            level = rng.randrange(n_vars - 1)
            m.swap_levels(level, interaction=interaction)
            tracker.touch(level, level + 1)
            if rng.random() < 0.4:
                assert tracker.size() == m.size(root)
            if rng.random() < 0.1:
                m.collect()
        assert tracker.size() == m.size(root)
        assert other.size() == m.size(other)
        m.check()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_block_moves(self, seed):
        rng = random.Random(100 + seed)
        m = BddManager()
        n_vars = rng.randint(5, 10)
        for _ in range(n_vars):
            m.new_var()
        # Two roots on overlapping halves: the swaps of one half's private
        # variables past the other's are interaction-matrix skips.
        half = n_vars // 2
        root = random_root(m, range(half + 1), rng, cubes=9)
        other = random_root(m, range(half - 1, n_vars), rng)
        groups = [[0, 1], [3, 4, 5]] if n_vars > 6 else [[1, 2]]
        blocks = _block_list(m, groups)
        interaction = m.interaction_pairs()
        tracker = SizeTracker(m, root)
        for _ in range(80):
            i = rng.randrange(len(blocks) - 1)
            top, bottom = blocks[i], blocks[i + 1]
            first = m.level_of(top[0])
            _swap_adjacent_blocks(m, top, bottom, interaction)
            tracker.touch(first, first + len(top) + len(bottom) - 1)
            blocks[i], blocks[i + 1] = bottom, top
            if rng.random() < 0.3:
                assert tracker.size() == m.size(root)
        assert tracker.size() == m.size(root)
        assert other.size() == m.size(other)
        assert m.swap_skips > 0

    def test_constant_roots(self):
        m = BddManager()
        m.new_var()
        m.new_var()
        for root in (m.true, m.false):
            tracker = SizeTracker(m, root)
            m.swap_levels(0)
            tracker.touch(0, 1)
            assert tracker.size() == m.size(root) == 1

    def test_touch_without_a_change_keeps_the_size(self):
        m = BddManager()
        for _ in range(4):
            m.new_var()
        root = (m.var(0) & m.var(2)) | (m.var(1) ^ m.var(3))
        tracker = SizeTracker(m, root)
        tracker.touch(0, 3)
        assert tracker.size() == m.size(root)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_read_of_a_grouped_sift(self, seed, monkeypatch):
        rng = random.Random(200 + seed)
        m = BddManager()
        n_vars = 8
        for _ in range(n_vars):
            m.new_var()
        root = random_root(m, range(n_vars), rng, cubes=8)
        monkeypatch.setattr(sifting, "SizeTracker", CheckedTracker)
        CheckedTracker.reads = 0
        sift_to_convergence(m, groups=[[2, 3], [5, 6, 7]], root=root)
        sift(m, root=root)
        assert CheckedTracker.reads > 10


class FullTraversal:
    """The size probe sifting used before the tracker: walk all of root."""

    def __init__(self, manager, root):
        self.size = lambda: manager.size(root)

    def touch(self, lo, hi):
        pass


def sift_outcome(machine, full_traversal, monkeypatch):
    with monkeypatch.context() as patch:
        if full_traversal:
            patch.setattr(sifting, "SizeTracker", FullTraversal)
        rf = synthesize_reactive(machine)
        final = rf.sift()
    m = rf.manager
    return (m.current_order(), m.swap_count, m.swap_skips, final, rf.chi.size())


def sift_machines():
    machines = [compile_source(path.read_text()) for path in EXAMPLES]
    machines += [generate_case(16, index).cfsm for index in range(60)]
    return machines


class TestSynthesisSiftDecisions:
    def test_examples_and_generated_machines_sift_identically(self, monkeypatch):
        machines = sift_machines()
        assert len(EXAMPLES) >= 10
        for machine in machines:
            old = sift_outcome(machine, True, monkeypatch)
            new = sift_outcome(machine, False, monkeypatch)
            assert new == old, machine.name
            assert new[3] == new[4]
