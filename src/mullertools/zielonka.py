"""Alternating-subset trees for explicit Muller conditions, the memory
numbers they induce, and the parity automaton built over their leaves."""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Alphabet, Automaton, MalformedInput, MullerCondition,
                   ParityAcceptance, ScaleGuard, zielonka_children)


@dataclass(frozen=True)
class ZielonkaTree:
    """Tree of alternating colour subsets.

    The root is labelled by the full alphabet; the children of a node are the
    inclusion-maximal non-empty strict subsets of its label on the opposite
    side of the accepting family.  Children are ordered by ascending label
    bitset, which makes the shape canonical.
    """

    alphabet: Alphabet
    label: int
    accepting: bool
    children: tuple["ZielonkaTree", ...]

    def height(self) -> int:
        """Number of nodes on a longest root-to-leaf path."""
        return 1 + max((child.height() for child in self.children), default=0)

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def label_names(self) -> tuple[str, ...]:
        return self.alphabet.names(self.label)


def _check_alphabet(cond: MullerCondition) -> None:
    if len(cond.alphabet) > 16:
        raise ScaleGuard(f"tree construction enumerates subsets; alphabet of"
                         f" {len(cond.alphabet)} symbols, limit 16")


def zielonka_tree(cond: MullerCondition) -> ZielonkaTree:
    """Build the alternating-subset tree of an explicit Muller condition."""
    _check_alphabet(cond)
    labels: dict[int, list[int]] = {}  # a label recurs under many parents

    def build(label: int, accepting: bool) -> ZielonkaTree:
        if label not in labels:
            labels[label] = zielonka_children(label, cond.accepting.__contains__)
        children = tuple(build(sub, not accepting) for sub in labels[label])
        return ZielonkaTree(cond.alphabet, label, accepting, children)

    full = cond.alphabet.full_mask
    return build(full, full in cond.accepting)


def general_memory(cond: MullerCondition) -> int:
    return memory_requirements(cond).general_memory


def is_half_positional(cond: MullerCondition) -> bool:
    """True when one memory state suffices, i.e. no accepting node branches."""
    return memory_requirements(cond).half_positional


def is_genbuchi_recognizable(cond: MullerCondition) -> bool:
    """True when the condition is a finite conjunction of met colour sets.

    Holds exactly when the tree has height at most two and, if the height is
    two, the root is accepting.
    """
    return memory_requirements(cond).genbuchi_recognizable


def priorities_used(cond: MullerCondition) -> tuple[int, bool]:
    """(number of distinct priorities, whether the top priority is even)."""
    req = memory_requirements(cond)
    return req.priorities_used, req.top_priority_even


@dataclass(frozen=True)
class MemoryRequirements:
    general_memory: int
    half_positional: bool
    genbuchi_recognizable: bool
    priorities_used: int
    top_priority_even: bool


def memory_requirements(cond: MullerCondition) -> MemoryRequirements:
    """Numbers read off the condition's tree, without building it.

    A node is accepting exactly when its label is, and its children depend
    only on its label, so each distinct label is worked out once, though it
    recurs under many parents.  General memory counts one at a leaf, the sum
    over the children at an accepting node and their maximum at a rejecting
    one.  The tree's height is the number of priorities.
    """
    _check_alphabet(cond)
    memo: dict[int, tuple[int, int, bool]] = {}  # label: memory, height, no branching

    def numbers(label: int) -> tuple[int, int, bool]:
        if label not in memo:
            accepting = label in cond.accepting
            below = [numbers(sub) for sub in
                     zielonka_children(label, cond.accepting.__contains__)]
            memo[label] = (1, 1, True) if not below else (
                (sum if accepting else max)(memory for memory, _, _ in below),
                1 + max(height for _, height, _ in below),
                (not accepting or len(below) == 1) and all(flat for _, _, flat in below))
        return memo[label]

    memory, height, flat = numbers(cond.alphabet.full_mask)
    accepting = cond.alphabet.full_mask in cond.accepting
    return MemoryRequirements(
        general_memory=memory,
        half_positional=flat,
        genbuchi_recognizable=height == 1 or (height == 2 and accepting),
        priorities_used=height,
        top_priority_even=accepting,
    )


def _collect_leaves(tree: ZielonkaTree, path: list[ZielonkaTree],
                    leaves: list[tuple[ZielonkaTree, tuple[ZielonkaTree, ...]]],
                    first_leaf: dict[int, int]) -> None:
    """Leaves in depth-first order with their root paths, and the index of
    the first leaf below each node (keyed by node id)."""
    first_leaf[id(tree)] = len(leaves)
    path.append(tree)
    if not tree.children:
        leaves.append((tree, tuple(path)))
    else:
        for child in tree.children:
            _collect_leaves(child, path, leaves, first_leaf)
    path.pop()


def parity_automaton_from_tree(tree: ZielonkaTree) -> Automaton:
    """Deterministic parity automaton over the leaves of the tree.

    States are the leaves in depth-first order.  Reading a symbol moves up to
    the deepest node on the current leaf's path whose label contains the
    symbol, emits that node's priority, and restarts at the first leaf of the
    cyclically next child below that node.  Priorities decrease with depth
    and the root's priority is even exactly when the root is accepting.
    """
    if tree.label != tree.alphabet.full_mask:
        raise MalformedInput("tree root must be labelled by the whole alphabet")
    leaves: list[tuple[ZielonkaTree, tuple[ZielonkaTree, ...]]] = []
    first_leaf: dict[int, int] = {}
    _collect_leaves(tree, [], leaves, first_leaf)
    height = tree.height()
    base = (height - 1) % 2 if tree.accepting else height % 2
    # priority of a node at depth d is (height - 1 - d) + base
    out_symbols = tuple(str(p) for p in range(base, height + base))
    rows: list[tuple[tuple[int, int], ...]] = []
    for leaf, path in leaves:
        row: list[tuple[int, int]] = []
        for a in range(len(tree.alphabet)):
            bit = 1 << a
            node_depth = None
            for d in range(len(path) - 1, -1, -1):
                if path[d].label & bit:
                    node_depth = d
                    break
            if node_depth is None:
                raise MalformedInput("tree root must be labelled by the whole alphabet")
            node = path[node_depth]
            priority = (height - 1 - node_depth) + base
            if node is leaf:
                target = first_leaf[id(leaf)]
            else:
                below = path[node_depth + 1]
                position = next(i for i, c in enumerate(node.children) if c is below)
                nxt = node.children[(position + 1) % len(node.children)]
                target = first_leaf[id(nxt)]
            row.append((target, priority - base))
        rows.append(tuple(row))
    acceptance = ParityAcceptance(tuple(range(base, height + base)))
    return Automaton(len(leaves), 0, tree.alphabet, Alphabet(out_symbols),
                     tuple(rows), acceptance)


def parity_automaton(cond: MullerCondition) -> Automaton:
    """Minimal-by-leaves deterministic parity automaton for the condition."""
    return parity_automaton_from_tree(zielonka_tree(cond))


def ascii_tree(tree: ZielonkaTree) -> str:
    """Plain ASCII rendering of the tree, one node per line."""
    lines: list[str] = []

    def render(node: ZielonkaTree, prefix: str, is_root: bool, is_last: bool) -> None:
        mark = "[+]" if node.accepting else "[-]"
        label = "{" + ",".join(node.label_names()) + "}"
        if is_root:
            lines.append(label + " " + mark)
            child_prefix = ""
        else:
            connector = "`-- " if is_last else "+-- "
            lines.append(prefix + connector + label + " " + mark)
            child_prefix = prefix + ("    " if is_last else "|   ")
        for i, child in enumerate(node.children):
            render(child, child_prefix, False, i == len(node.children) - 1)

    render(tree, "", True, True)
    return "\n".join(lines)


def trees_isomorphic(left: ZielonkaTree, right: ZielonkaTree) -> bool:
    """Structural equality up to symbol names: same label sets, acceptance
    flags and child lists, compared recursively in canonical order."""

    def signature(node: ZielonkaTree):
        return (frozenset(node.label_names()), node.accepting,
                tuple(signature(child) for child in node.children))

    return signature(left) == signature(right)


def tree_to_json(tree: ZielonkaTree) -> dict:
    return {
        "label": list(tree.label_names()),
        "accepting": tree.accepting,
        "children": [tree_to_json(child) for child in tree.children],
    }


def tree_from_json(data: object, alphabet: Alphabet | None = None) -> ZielonkaTree:
    if not isinstance(data, dict):
        raise MalformedInput("tree must be a JSON object")
    if alphabet is None:
        label = data.get("label")
        if not isinstance(label, list):
            raise MalformedInput("tree field 'label' must be a list of symbols")
        alphabet = Alphabet(tuple(label))
    for field_name in ("label", "accepting", "children"):
        if field_name not in data:
            raise MalformedInput(f"tree is missing field '{field_name}'")
    if not isinstance(data["accepting"], bool):
        raise MalformedInput("tree field 'accepting' must be a boolean")
    if not isinstance(data["children"], list):
        raise MalformedInput("tree field 'children' must be a list")
    children = tuple(tree_from_json(child, alphabet) for child in data["children"])
    return ZielonkaTree(alphabet, alphabet.bits(data["label"]),
                        data["accepting"], children)
