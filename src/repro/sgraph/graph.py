"""The s-graph ("software graph") of Definition 1.

"An s-graph is a directed acyclic graph (DAG) with one source and one sink.
Its vertex set contains four types of vertices: BEGIN, END, TEST, and
ASSIGN."  TEST vertices may have more than two children (footnote 3) — we
use that for switch-style multiway branches on a multi-valued state code.

Vertices here are lightweight records; edges are child-id lists.  TEST edges
carry an *infeasible* flag marking branches that fall outside the care set
(the paper's false paths, excluded from worst-case timing analysis,
Sec. III-C).

ASSIGN labels are Boolean functions (BDDs) over the encoding's input
variables; with the outputs-after-support ordering they are constants, with
outputs-before-support they are full expressions rendered as ITE chains
(Sec. III-B3c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..bdd import Function

__all__ = ["SGraph", "Vertex", "BEGIN", "END", "TEST", "ASSIGN", "EvalResult"]

BEGIN = "BEGIN"
END = "END"
TEST = "TEST"
ASSIGN = "ASSIGN"


@dataclass
class Vertex:
    """One s-graph vertex.

    * ``BEGIN``: ``children == [next]``;
    * ``END``: no children;
    * ``TEST``: binary — ``var`` is the tested input variable and
      ``children == [false_child, true_child]``; multiway — ``switch_state``
      names the state variable, ``switch_bits`` its (MSB-first) bit
      variables, and ``children[k]`` is the branch for code ``k``;
    * ``ASSIGN``: ``var`` is the output variable, ``label`` its value
      function, ``children == [next]``.
    """

    vid: int
    kind: str
    children: List[int] = field(default_factory=list)
    var: Optional[int] = None
    label: Optional[Function] = None
    infeasible: List[bool] = field(default_factory=list)
    switch_state: Optional[str] = None
    switch_bits: Optional[List[int]] = None

    @property
    def is_switch(self) -> bool:
        return self.kind == TEST and self.switch_state is not None


@dataclass
class EvalResult:
    """Outcome of the paper's ``evaluate`` procedure (Sec. III-A)."""

    outputs: Dict[int, bool]
    assigned: Set[int]
    path: List[int]


class SGraph:
    """An s-graph plus the variable partition it computes over."""

    def __init__(
        self,
        input_vars: Sequence[int],
        output_vars: Sequence[int],
        name: str = "sgraph",
    ):
        self.name = name
        self.input_vars = list(input_vars)
        self.output_vars = list(output_vars)
        self._vertices: Dict[int, Vertex] = {}
        self._next_id = 0
        self.end = self._add(Vertex(vid=-1, kind=END)).vid
        self.begin: Optional[int] = None

    # -- construction -----------------------------------------------------

    def _add(self, vertex: Vertex) -> Vertex:
        vertex.vid = self._next_id
        self._next_id += 1
        self._vertices[vertex.vid] = vertex
        return vertex

    def add_test(
        self, var: int, children: Sequence[int], infeasible: Optional[Sequence[bool]] = None
    ) -> int:
        infeasible = list(infeasible) if infeasible is not None else [False] * len(children)
        if len(infeasible) != len(children):
            raise ValueError("infeasible flags must match children")
        return self._add(
            Vertex(vid=-1, kind=TEST, var=var, children=list(children), infeasible=infeasible)
        ).vid

    def add_switch(
        self,
        state: str,
        bits: Sequence[int],
        children: Sequence[int],
        infeasible: Optional[Sequence[bool]] = None,
    ) -> int:
        infeasible = list(infeasible) if infeasible is not None else [False] * len(children)
        return self._add(
            Vertex(
                vid=-1,
                kind=TEST,
                children=list(children),
                infeasible=infeasible,
                switch_state=state,
                switch_bits=list(bits),
            )
        ).vid

    def add_assign(self, var: int, label: Function, next_vertex: int) -> int:
        return self._add(
            Vertex(vid=-1, kind=ASSIGN, var=var, label=label, children=[next_vertex])
        ).vid

    def set_begin(self, next_vertex: int) -> None:
        self.begin = self._add(Vertex(vid=-1, kind=BEGIN, children=[next_vertex])).vid

    # -- access -------------------------------------------------------------

    def vertex(self, vid: int) -> Vertex:
        return self._vertices[vid]

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def __len__(self) -> int:
        return len(self._vertices)

    def reachable(self) -> Set[int]:
        if self.begin is None:
            raise ValueError("s-graph has no BEGIN vertex")
        seen: Set[int] = set()
        stack = [self.begin]
        while stack:
            vid = stack.pop()
            if vid in seen:
                continue
            seen.add(vid)
            stack.extend(self._vertices[vid].children)
        return seen

    def drop_unreachable(self) -> None:
        keep = self.reachable()
        keep.add(self.end)
        self._vertices = {vid: v for vid, v in self._vertices.items() if vid in keep}

    def topo_order(self) -> List[int]:
        """Vertices in a topological order from BEGIN (END last)."""
        order: List[int] = []
        state: Dict[int, int] = {}

        def visit(vid: int) -> None:
            stack = [(vid, iter(self._vertices[vid].children))]
            state[vid] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    mark = state.get(child, 0)
                    if mark == 1:
                        raise ValueError("s-graph contains a cycle")
                    if mark == 0:
                        state[child] = 1
                        stack.append((child, iter(self._vertices[child].children)))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    order.append(node)
                    stack.pop()

        if self.begin is None:
            raise ValueError("s-graph has no BEGIN vertex")
        visit(self.begin)
        order.reverse()
        return order

    def counts(self) -> Dict[str, int]:
        reach = self.reachable()
        result = {BEGIN: 0, END: 0, TEST: 0, ASSIGN: 0}
        for vid in reach:
            result[self._vertices[vid].kind] += 1
        return result

    def depth(self) -> int:
        """Longest vertex count on any BEGIN->END path (all edges)."""
        longest: Dict[int, int] = {}
        for vid in reversed(self.topo_order()):
            v = self._vertices[vid]
            if not v.children:
                longest[vid] = 1
            else:
                longest[vid] = 1 + max(longest[c] for c in v.children)
        assert self.begin is not None
        return longest[self.begin]

    # -- evaluation (the paper's `evaluate` / `eval_step`) ---------------------

    def _switch_code(self, vertex: Vertex, bits: Dict[int, bool]) -> int:
        assert vertex.switch_bits is not None
        code = 0
        for var in vertex.switch_bits:
            code = (code << 1) | int(bits[var])
        return code

    def evaluate(self, bits: Dict[int, bool]) -> EvalResult:
        """Run one traversal under an input assignment.

        Implements ``evaluate``/``eval_step`` of Sec. III-A: TEST vertices
        branch on predicates, ASSIGN vertices record the value of their label
        function under the input assignment.
        """
        if self.begin is None:
            raise ValueError("s-graph has no BEGIN vertex")
        outputs: Dict[int, bool] = {}
        assigned: Set[int] = set()
        path: List[int] = []
        vid = self.begin
        manager = None
        while True:
            vertex = self._vertices[vid]
            path.append(vid)
            if vertex.kind == END:
                return EvalResult(outputs=outputs, assigned=assigned, path=path)
            if vertex.kind in (BEGIN,):
                vid = vertex.children[0]
            elif vertex.kind == ASSIGN:
                assert vertex.label is not None and vertex.var is not None
                manager = vertex.label.manager
                value = manager.evaluate(vertex.label, bits)
                outputs[vertex.var] = value
                assigned.add(vertex.var)
                vid = vertex.children[0]
            else:  # TEST
                collapsed = getattr(vertex, "collapsed_predicates", None)
                if collapsed is not None:
                    for index, pred in enumerate(collapsed):
                        if pred.manager.evaluate(pred, bits):
                            vid = vertex.children[index]
                            break
                    else:
                        raise ValueError("collapsed TEST predicates not exhaustive")
                elif vertex.is_switch:
                    code = self._switch_code(vertex, bits)
                    if code >= len(vertex.children):
                        raise ValueError(
                            f"switch on {vertex.switch_state}: code {code} out of range"
                        )
                    vid = vertex.children[code]
                else:
                    assert vertex.var is not None
                    vid = vertex.children[1 if bits[vertex.var] else 0]
            if len(path) > len(self._vertices) + 2:
                raise RuntimeError("evaluation did not terminate (cycle?)")

    # -- functionality (Definition 2) -------------------------------------------

    def check_functional(
        self, care_bits: Optional[Sequence[Dict[int, bool]]] = None
    ) -> bool:
        """Exhaustively check condition 1 of Definition 2.

        Every output variable must be assigned a defined value on every
        (care) input assignment.  ``care_bits`` enumerates the assignments to
        check; defaults to all 2^n assignments of the input variables.
        """
        assignments = (
            care_bits if care_bits is not None else self._all_assignments()
        )
        wanted = set(self.output_vars)
        for bits in assignments:
            result = self.evaluate(bits)
            if not wanted <= result.assigned:
                return False
        return True

    def _all_assignments(self) -> Iterator[Dict[int, bool]]:
        n = len(self.input_vars)
        if n > 20:
            raise ValueError("too many input variables for exhaustive check")
        for mask in range(1 << n):
            yield {
                var: bool((mask >> i) & 1) for i, var in enumerate(self.input_vars)
            }

    # -- pretty printing -----------------------------------------------------------

    def to_dot(self, describe=None) -> str:
        """Graphviz DOT rendering of the s-graph (for papers and debugging)."""
        describe = describe or (lambda v: f"v{v}")
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        reach = self.reachable()
        for vid in sorted(reach):
            vertex = self._vertices[vid]
            if vertex.kind == BEGIN:
                lines.append(f'  n{vid} [label="BEGIN", shape=plaintext];')
            elif vertex.kind == END:
                lines.append(f'  n{vid} [label="END", shape=plaintext];')
            elif vertex.kind == TEST and vertex.is_switch:
                lines.append(
                    f'  n{vid} [label="switch {vertex.switch_state}", '
                    f"shape=diamond];"
                )
            elif vertex.kind == TEST:
                label = describe(vertex.var) if vertex.var is not None else "?"
                lines.append(f'  n{vid} [label="{label}", shape=diamond];')
            else:  # ASSIGN
                label = describe(vertex.var)
                if vertex.label is not None and vertex.label.is_constant:
                    value = "1" if vertex.label.is_true else "0"
                    label = f"{label} := {value}"
                else:
                    label = f"{label} := <expr>"
                lines.append(f'  n{vid} [label="{label}", shape=box];')
            for index, child in enumerate(vertex.children):
                attrs = []
                if vertex.kind == TEST and not vertex.is_switch and len(
                    vertex.children
                ) == 2:
                    attrs.append(f'label="{index}"')
                    if index == 0:
                        attrs.append("style=dashed")
                elif vertex.kind == TEST:
                    attrs.append(f'label="{index}"')
                if vertex.infeasible and index < len(vertex.infeasible) and (
                    vertex.infeasible[index]
                ):
                    attrs.append("color=gray")
                attr_text = f" [{', '.join(attrs)}]" if attrs else ""
                lines.append(f"  n{vid} -> n{child}{attr_text};")
        lines.append("}")
        return "\n".join(lines)

    def dump(self, describe=None) -> str:
        """Readable listing (used by examples and debugging)."""
        lines = [f"s-graph {self.name}: {len(self.reachable())} vertices"]
        for vid in self.topo_order():
            v = self._vertices[vid]
            if v.kind == TEST and v.is_switch:
                branches = ", ".join(
                    f"{k}->{c}" + ("!" if v.infeasible[k] else "")
                    for k, c in enumerate(v.children)
                )
                lines.append(f"  {vid}: SWITCH {v.switch_state} [{branches}]")
            elif v.kind == TEST:
                name = describe(v.var) if describe else f"v{v.var}"
                flags = "".join("!" if f else "" for f in v.infeasible)
                lines.append(
                    f"  {vid}: TEST {name} -> else {v.children[0]}, then {v.children[1]} {flags}"
                )
            elif v.kind == ASSIGN:
                name = describe(v.var) if describe else f"v{v.var}"
                if v.label is not None and v.label.is_constant:
                    value = "1" if v.label.is_true else "0"
                else:
                    value = "<expr>"
                lines.append(f"  {vid}: ASSIGN {name} := {value} -> {v.children[0]}")
            elif v.kind == BEGIN:
                lines.append(f"  {vid}: BEGIN -> {v.children[0]}")
            else:
                lines.append(f"  {vid}: END")
        return "\n".join(lines)
