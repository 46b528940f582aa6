"""Cluster-allocation policies.

On a conventional or write-specialized machine any cluster can execute any
instruction, and the paper uses **round-robin** allocation.  On the
4-cluster WSRS machine of Figure 3 the *position of the operands* dictates
the cluster:

* subsets are numbered so that subset ``i`` has a top/bottom bit
  ``f = i >> 1`` and a left/right bit ``s = i & 1``;
* cluster ``C(f, s)`` (number ``2*f + s``) reads its **first** operand from
  the subsets with the same ``f`` and its **second** operand from the
  subsets with the same ``s``, and writes subset ``2*f + s``.

Hence a dyadic instruction whose operands live in subsets ``a`` (first) and
``b`` (second) *must* run on cluster ``2*(a >> 1) + (b & 1)``.  The degrees
of freedom of section 3.3 relax this:

* **monadic** instructions leave one bit free (two legal clusters);
* **commutative dyadic** instructions may swap operands (two legal
  clusters when the operands lie in different subsets);
* **"commutative" clusters** can execute *any* instruction with its
  operands exchanged (computing ``-A + B`` for ``A - B``), making every
  dyadic instruction with operands in two different subsets 2-way free and
  every monadic instruction 3-way free.

The two policies evaluated in section 5 are:

* **RM (random monadic)** - the operand of a monadic instruction fixes the
  top/bottom bicluster; the left/right bicluster is chosen at random.
  Dyadic instructions are fully constrained (no operand swapping).
* **RC (random "commutative" cluster)** - the instruction *form* (operand
  order) is chosen at random first, assuming commutative clusters; then
  for monadic instructions one of the two legal clusters of that form is
  chosen at random.

The module also provides round-robin/random/least-loaded policies for
unconstrained machines and a dependence-aware policy sketching the future
work of section 5.4.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AllocationError
from repro.trace.model import TraceInstruction

#: (cluster, swapped) - ``swapped`` records whether the instruction runs in
#: its exchanged-operand form.
Choice = Tuple[int, bool]

SubsetOf = Callable[[int], int]


def cluster_of_subsets(first_subset: int, second_subset: int) -> int:
    """The unique WSRS cluster reading (first, second) operand subsets."""
    return 2 * (first_subset >> 1) + (second_subset & 1)


def clusters_for_first_operand(subset: int) -> Tuple[int, int]:
    """Legal clusters when only the first operand constrains allocation."""
    top_bottom = subset >> 1
    return (2 * top_bottom, 2 * top_bottom + 1)


def clusters_for_second_operand(subset: int) -> Tuple[int, int]:
    """Legal clusters when only the second operand constrains allocation."""
    left_right = subset & 1
    return (left_right, 2 + left_right)


def legal_choices(
    inst: TraceInstruction,
    subset_of: SubsetOf,
    allow_swap: bool,
    swap_needs_commutative: bool = False,
) -> List[Choice]:
    """Enumerate the legal (cluster, swapped) pairs for a WSRS machine.

    ``allow_swap`` models "commutative" clusters (section 3.3): when True,
    the exchanged-operand form is available for every instruction.  With
    ``swap_needs_commutative`` the swap is only offered for instructions
    flagged commutative (plain commutative-dyadic exploitation, without
    commutative clusters).
    """
    choices: List[Choice] = []
    if inst.is_dyadic:
        first = subset_of(inst.src1)
        second = subset_of(inst.src2)
        choices.append((cluster_of_subsets(first, second), False))
        may_swap = allow_swap and (inst.commutative
                                   or not swap_needs_commutative)
        if may_swap:
            swapped_cluster = cluster_of_subsets(second, first)
            if swapped_cluster != choices[0][0]:
                choices.append((swapped_cluster, True))
    elif inst.is_monadic:
        if inst.src1 is not None:
            subset = subset_of(inst.src1)
            choices.extend((c, False)
                           for c in clusters_for_first_operand(subset))
            if allow_swap:
                for cluster in clusters_for_second_operand(subset):
                    if all(cluster != c for c, _ in choices):
                        choices.append((cluster, True))
        else:
            subset = subset_of(inst.src2)
            choices.extend((c, False)
                           for c in clusters_for_second_operand(subset))
            if allow_swap:
                for cluster in clusters_for_first_operand(subset):
                    if all(cluster != c for c, _ in choices):
                        choices.append((cluster, True))
    else:  # noadic: any cluster may produce the result
        choices.extend((c, False) for c in range(4))
    return choices


class Allocator:
    """Base class: maps each instruction to an execution cluster.

    Every policy draws randomness exclusively from ``self.rng``, a
    per-instance :class:`random.Random` built from the recorded
    ``self.seed`` - never from the module-level ``random.*`` API, whose
    shared global state would make matrix cells irreproducible
    (``wsrs analyze --pass lint`` enforces exactly this).
    """

    name = "base"
    #: Whether the policy honours the WSRS read constraints.
    wsrs_legal = False

    def __init__(self, num_clusters: int = 4, seed: int = 0) -> None:
        self.num_clusters = num_clusters
        self.seed = seed
        self.rng = random.Random(seed)

    def allocate(
        self,
        inst: TraceInstruction,
        subset_of: Optional[SubsetOf] = None,
        occupancy: Optional[Sequence[int]] = None,
    ) -> Choice:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any inter-instruction state (new simulation run).

        Reseeds the RNG, so a reused allocator replays the exact
        allocation stream of a fresh instance.
        """
        self.rng = random.Random(self.seed)


class RoundRobinAllocator(Allocator):
    """The paper's baseline policy for conventional and WS machines."""

    name = "round_robin"

    def __init__(self, num_clusters: int = 4, seed: int = 0) -> None:
        super().__init__(num_clusters, seed)
        self._next = 0

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        cluster = self._next
        self._next = (self._next + 1) % self.num_clusters
        return cluster, False

    def reset(self) -> None:
        super().reset()
        self._next = 0


class RandomAllocator(Allocator):
    """Uniformly random allocation (pseudo-random static policy)."""

    name = "random"

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        return self.rng.randrange(self.num_clusters), False


class LeastLoadedAllocator(Allocator):
    """Send each instruction to the emptiest cluster (ablation policy)."""

    name = "least_loaded"

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        if not occupancy:
            return 0, False
        cluster = min(range(self.num_clusters), key=occupancy.__getitem__)
        return cluster, False


class TypePoolAllocator(Allocator):
    """Figure 2b: pools of functional units write distinct subsets.

    The paper's second write-specialization arrangement dedicates
    register subsets to *pools* of identical functional units
    (load/store units, simple ALUs, complex ALUs, branch units) instead
    of clusters; the pool of an instruction is known at decode
    ("predecoded bits in the instruction cache"), so renaming needs no
    extra pipeline stages.  On the symmetric-cluster machine simulated
    here the pool index doubles as the cluster index, which makes this
    policy an instructive worst case for workload balance - the
    simple-ALU pool receives around half of a typical instruction stream.
    """

    name = "type_pools"

    #: pool indices
    POOL_MEMORY = 0
    POOL_SIMPLE = 1
    POOL_COMPLEX = 2
    POOL_BRANCH = 3

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        from repro.trace.model import OpClass

        op = inst.op
        if op in (OpClass.LOAD, OpClass.STORE):
            return self.POOL_MEMORY, False
        if op == OpClass.BRANCH:
            return self.POOL_BRANCH, False
        if op in (OpClass.IMULDIV, OpClass.FPDIV):
            return self.POOL_COMPLEX, False
        return self.POOL_SIMPLE, False


class RandomMonadicAllocator(Allocator):
    """The paper's **RM** policy (section 5.2.1) - WSRS-legal.

    The register operand of a monadic instruction determines the
    top/bottom bicluster; the left/right bicluster is chosen at random.
    Dyadic instructions are fully constrained; noadic instructions are
    allocated at random.
    """

    name = "random_monadic"
    wsrs_legal = True

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        if subset_of is None:
            raise AllocationError("RM policy needs the subset map")
        choices = legal_choices(inst, subset_of, allow_swap=False)
        if len(choices) == 1:
            return choices[0]
        return choices[self.rng.randrange(len(choices))]


class RandomCommutativeAllocator(Allocator):
    """The paper's **RC** policy (section 5.2.1) - WSRS-legal.

    Functional units execute instructions in either form (commutative
    clusters).  The form is drawn at random first; monadic instructions
    then pick one of the two clusters legal for that form at random.
    """

    name = "random_commutative"
    wsrs_legal = True

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        if subset_of is None:
            raise AllocationError("RC policy needs the subset map")
        swapped_form = bool(self.rng.getrandbits(1))
        if inst.is_dyadic:
            first, second = inst.src1, inst.src2
            if swapped_form:
                first, second = second, first
            return (cluster_of_subsets(subset_of(first), subset_of(second)),
                    swapped_form)
        if inst.is_monadic:
            operand = inst.src1 if inst.src1 is not None else inst.src2
            operand_in_first_slot = inst.src1 is not None
            if swapped_form:
                operand_in_first_slot = not operand_in_first_slot
            subset = subset_of(operand)
            if operand_in_first_slot:
                clusters = clusters_for_first_operand(subset)
            else:
                clusters = clusters_for_second_operand(subset)
            return clusters[self.rng.getrandbits(1)], swapped_form
        return self.rng.randrange(self.num_clusters), False


class DependenceAwareAllocator(Allocator):
    """Future-work policy of section 5.4 - WSRS-legal.

    Among the legal choices (with commutative clusters), prefer keeping
    the instruction where it has the most freedom taken away anyway - the
    fully-constrained case is untouched - and otherwise trade off local
    workload balance: pick the legal cluster with the lowest occupancy.
    """

    name = "dependence_aware"
    wsrs_legal = True

    def allocate(self, inst, subset_of=None, occupancy=None) -> Choice:
        if subset_of is None:
            raise AllocationError("dependence-aware policy needs the "
                                  "subset map")
        choices = legal_choices(inst, subset_of, allow_swap=True)
        if len(choices) == 1 or not occupancy:
            return choices[0]
        return min(choices, key=lambda choice: occupancy[choice[0]])


_POLICIES = {
    cls.name: cls
    for cls in (
        RoundRobinAllocator,
        RandomAllocator,
        LeastLoadedAllocator,
        TypePoolAllocator,
        RandomMonadicAllocator,
        RandomCommutativeAllocator,
        DependenceAwareAllocator,
    )
}


def make_allocator(name: str, num_clusters: int = 4,
                   seed: int = 0) -> Allocator:
    """Instantiate a policy by its configuration name.

    ``"mapped_random"`` - the generalised-mapping policy of
    :mod:`repro.extensions.general_wsrs` - is resolved lazily to keep the
    import graph acyclic.
    """
    if name == "mapped_random":
        from repro.extensions.general_wsrs import MappedRandomAllocator

        return MappedRandomAllocator(num_clusters=num_clusters, seed=seed)
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise AllocationError(
            f"unknown allocation policy {name!r}; choose from "
            f"{sorted(_POLICIES) + ['mapped_random']}") from None
    return cls(num_clusters=num_clusters, seed=seed)


def policy_names() -> List[str]:
    return sorted(list(_POLICIES) + ["mapped_random"])
