"""Alternating-subset trees for explicit Muller conditions, the memory
numbers they induce, and the parity automaton built over their leaves."""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import (Alphabet, Automaton, MalformedInput, MullerCondition,
                   ParityAcceptance, ScaleGuard, bit_indices)


@dataclass(frozen=True, slots=True)
class ZielonkaTree:
    """Tree of alternating colour subsets.

    The root is labelled by the full alphabet; the children of a node are the
    inclusion-maximal non-empty strict subsets of its label on the opposite
    side of the accepting family.  Children are ordered by ascending label
    bitset, which makes the shape canonical.  A node may be shared by many
    parents, so the numbers of the subtree below it are kept when it is
    built: its leaf count, its height, its general memory and whether an
    accepting node in it branches.  General memory counts one at a leaf, the
    sum over the children at an accepting node and their maximum at a
    rejecting one: the memory states that the accepting player needs, and
    that suffice (Dziembowski, Jurdziński and Walukiewicz 1997).
    """

    alphabet: Alphabet
    label: int
    accepting: bool
    children: tuple["ZielonkaTree", ...]
    _leaves: int = field(init=False, repr=False, compare=False)
    _height: int = field(init=False, repr=False, compare=False)
    _memory: int = field(init=False, repr=False, compare=False)
    _branches: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        leaves = height = memory = 0
        accepting = self.accepting
        branches = accepting and len(self.children) > 1
        for child in self.children:  # one pass with no call per child
            leaves += child._leaves
            if child._height > height:
                height = child._height
            if accepting:
                memory += child._memory
            elif child._memory > memory:
                memory = child._memory
            branches = branches or child._branches
        put = object.__setattr__
        put(self, "_leaves", leaves or 1)
        put(self, "_height", 1 + height)
        put(self, "_memory", memory or 1)
        put(self, "_branches", branches)

    def height(self) -> int:
        """Number of nodes on a longest root-to-leaf path."""
        return self._height

    def leaf_count(self) -> int:
        return self._leaves

    def general_memory(self) -> int:
        return self._memory

    def branches(self) -> bool:
        return self._branches

    def label_names(self) -> tuple[str, ...]:
        return self.alphabet.names(self.label)


MAX_TREE_LETTERS = 16


def check_tree_alphabet(cond: MullerCondition) -> None:
    """Scale guard of every construction that enumerates the condition's
    letter subsets."""
    if len(cond.alphabet) > MAX_TREE_LETTERS:
        raise ScaleGuard(f"tree construction enumerates subsets; alphabet of"
                         f" {len(cond.alphabet)} symbols, limit {MAX_TREE_LETTERS}")


def zielonka_tree(cond: MullerCondition) -> ZielonkaTree:
    """Build the alternating-subset tree of an explicit Muller condition.

    A node depends only on its label, so a label that recurs under many
    parents is one node shared by all of them."""
    check_tree_alphabet(cond)
    nodes: dict[int, ZielonkaTree] = {}

    def build(label: int) -> ZielonkaTree:
        if label not in nodes:
            nodes[label] = ZielonkaTree(cond.alphabet, label, label in cond.accepting,
                                        tuple(map(build, cond.children(label))))
        return nodes[label]

    return build(cond.alphabet.full_mask)


def general_memory(cond: MullerCondition) -> int:
    return zielonka_tree(cond).general_memory()


@dataclass(frozen=True)
class MemoryRequirements:
    general_memory: int
    half_positional: bool
    genbuchi_recognizable: bool
    priorities_used: int
    top_priority_even: bool


def memory_requirements(cond: MullerCondition) -> MemoryRequirements:
    """Numbers read off the condition's tree.  The accepting player needs one
    memory state exactly when no accepting node branches.  The height is the
    number of priorities, the top one even when the root accepts.  The
    condition is a finite conjunction of met colour sets exactly when the
    height is one, or two under an accepting root."""
    tree = zielonka_tree(cond)
    height = tree.height()
    return MemoryRequirements(
        general_memory=tree.general_memory(),
        half_positional=not tree.branches(),
        genbuchi_recognizable=height == 1 or (height == 2 and tree.accepting),
        priorities_used=height,
        top_priority_even=tree.accepting,
    )


def parity_automaton_from_tree(tree: ZielonkaTree) -> Automaton:
    """Deterministic parity automaton over the leaves of the tree.

    States are the leaves in depth-first order.  Reading a symbol moves up to
    the deepest node on the current leaf's path whose label contains the
    symbol, emits that node's priority, and restarts at the first leaf of the
    cyclically next child below that node.  Priorities decrease with depth
    and the root's priority is even exactly when the root is accepting.

    One walk keeps, for the current path, the step that leaving each node
    takes and the deepest node holding each symbol, so every transition is
    one lookup.  A child's first leaf is its parent's first leaf plus the
    leaf counts of its earlier siblings.
    """
    if tree.label != tree.alphabet.full_mask:
        raise MalformedInput("tree root must be labelled by the whole alphabet")
    height = tree.height()
    base = (height - 1) % 2 if tree.accepting else height % 2
    # priority of a node at depth d is (height - 1 - d) + base
    deepest = [0] * len(tree.alphabet)  # depth of the deepest path node holding each symbol
    steps: list[tuple[int, int]] = []  # (target, colour) of leaving each path node
    rows: list[tuple[tuple[int, int], ...]] = []

    def visit(node: ZielonkaTree, depth: int, first: int) -> None:
        saved = [(a, deepest[a]) for a in bit_indices(node.label)]
        for a, _ in saved:
            deepest[a] = depth
        colour = height - 1 - depth
        if not node.children:
            steps.append((first, colour))
            rows.append(tuple(steps[d] for d in deepest))
            steps.pop()
        start = first  # first leaf of the current child
        for position, child in enumerate(node.children):
            end = start + child.leaf_count()
            steps.append((end if position + 1 < len(node.children) else first, colour))
            visit(child, depth + 1, start)
            steps.pop()
            start = end
        for a, old in saved:
            deepest[a] = old

    visit(tree, 0, 0)
    out_symbols = tuple(str(p) for p in range(base, height + base))
    acceptance = ParityAcceptance(tuple(range(base, height + base)))
    return Automaton(tree.leaf_count(), 0, tree.alphabet, Alphabet(out_symbols),
                     tuple(rows), acceptance)


def parity_automaton(cond: MullerCondition) -> Automaton:
    """Minimal-by-leaves deterministic parity automaton for the condition."""
    return parity_automaton_from_tree(zielonka_tree(cond))


def ascii_tree(tree: ZielonkaTree) -> str:
    """Plain ASCII rendering of the tree, one node per line."""
    lines: list[str] = []

    def render(node: ZielonkaTree, head: str, prefix: str) -> None:
        mark = "[+]" if node.accepting else "[-]"
        lines.append(head + "{" + ",".join(node.label_names()) + "} " + mark)
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            render(child, prefix + ("`-- " if last else "+-- "),
                   prefix + ("    " if last else "|   "))

    render(tree, "", "")
    return "\n".join(lines)


def trees_isomorphic(left: ZielonkaTree, right: ZielonkaTree) -> bool:
    """Structural equality up to symbol names: same label sets, acceptance
    flags and child lists, compared recursively in canonical order.  Each
    node object's signature is interned once, as a small int."""
    ints: dict[tuple, int] = {}  # signature -> its int
    seen: dict[int, int] = {}  # id of a node -> its signature's int

    def signature(node: ZielonkaTree) -> int:
        if id(node) not in seen:
            key = (frozenset(node.label_names()), node.accepting,
                   tuple(map(signature, node.children)))
            seen[id(node)] = ints.setdefault(key, len(ints))
        return seen[id(node)]

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
    if not isinstance(data.get("label"), list):  # at every node: a string is no label
        raise MalformedInput("tree field 'label' must be a list of symbols")
    alphabet = alphabet or Alphabet(tuple(data["label"]))
    for field_name in ("accepting", "children"):
        if field_name not in data:
            raise MalformedInput(f"tree is missing field '{field_name}'")
    if not isinstance(data["accepting"], bool):
        raise MalformedInput("tree field 'accepting' must be a boolean")
    if not isinstance(data["children"], list):
        raise MalformedInput("tree field 'children' must be a list")
    children = tuple(tree_from_json(child, alphabet) for child in data["children"])
    return ZielonkaTree(alphabet, alphabet.bits(data["label"]),
                        data["accepting"], children)
