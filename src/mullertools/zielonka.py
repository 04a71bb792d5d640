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


def zielonka_tree(cond: MullerCondition) -> ZielonkaTree:
    """Build the alternating-subset tree of an explicit Muller condition."""
    if len(cond.alphabet) > 16:
        raise ScaleGuard(f"tree construction enumerates subsets; alphabet of"
                         f" {len(cond.alphabet)} symbols, limit 16")

    labels: dict[int, list[int]] = {}  # a label recurs under many parents

    def build(label: int, accepting: bool) -> ZielonkaTree:
        if label not in labels:
            labels[label] = zielonka_children(label, cond.accepting.__contains__)
        children = tuple(build(sub, not accepting) for sub in labels[label])
        return ZielonkaTree(cond.alphabet, label, accepting, children)

    full = cond.alphabet.full_mask
    return build(full, full in cond.accepting)


def general_memory_of_tree(tree: ZielonkaTree) -> int:
    """Memory bound read off the tree: leaves count one, rejecting nodes take
    the maximum over their children, accepting nodes take the sum."""
    if not tree.children:
        return 1
    parts = [general_memory_of_tree(child) for child in tree.children]
    return sum(parts) if tree.accepting else max(parts)


def general_memory(cond: MullerCondition) -> int:
    return general_memory_of_tree(zielonka_tree(cond))


def _every_accepting_node_has_at_most_one_child(tree: ZielonkaTree) -> bool:
    if tree.accepting and len(tree.children) > 1:
        return False
    return all(_every_accepting_node_has_at_most_one_child(c) for c in tree.children)


def is_half_positional(cond: MullerCondition) -> bool:
    """True when one memory state suffices, i.e. no accepting node branches."""
    return _every_accepting_node_has_at_most_one_child(zielonka_tree(cond))


def is_genbuchi_recognizable(cond: MullerCondition) -> bool:
    """True when the condition is a finite conjunction of met colour sets.

    Holds exactly when the tree has height at most two and, if the height is
    two, the root is accepting.
    """
    tree = zielonka_tree(cond)
    h = tree.height()
    if h > 2:
        return False
    return h == 1 or tree.accepting


def priorities_used(cond: MullerCondition) -> tuple[int, bool]:
    """(number of distinct priorities, whether the top priority is even)."""
    tree = zielonka_tree(cond)
    return tree.height(), tree.accepting


@dataclass(frozen=True)
class MemoryRequirements:
    general_memory: int
    half_positional: bool
    genbuchi_recognizable: bool
    priorities_used: int
    top_priority_even: bool


def memory_requirements(cond: MullerCondition) -> MemoryRequirements:
    tree = zielonka_tree(cond)
    return MemoryRequirements(
        general_memory=general_memory_of_tree(tree),
        half_positional=_every_accepting_node_has_at_most_one_child(tree),
        genbuchi_recognizable=tree.height() == 1 or (tree.height() == 2 and tree.accepting),
        priorities_used=tree.height(),
        top_priority_even=tree.accepting,
    )


def _collect_leaves(tree: ZielonkaTree, path: list[ZielonkaTree],
                    leaves: list[tuple[ZielonkaTree, tuple[ZielonkaTree, ...]]]) -> None:
    path.append(tree)
    if not tree.children:
        leaves.append((tree, tuple(path)))
    else:
        for child in tree.children:
            _collect_leaves(child, path, leaves)
    path.pop()


def _first_leaf_index(tree: ZielonkaTree, first_leaf: dict[int, int], counter: list[int]) -> None:
    first_leaf[id(tree)] = counter[0]
    if not tree.children:
        counter[0] += 1
        return
    for child in tree.children:
        _first_leaf_index(child, first_leaf, counter)


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
    _collect_leaves(tree, [], leaves)
    first_leaf: dict[int, int] = {}
    _first_leaf_index(tree, first_leaf, [0])
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
