"""Abstract control-flow graphs: loops summarized, calls inlined, acyclic.

The transforms work on an explicit digraph over instruction nodes rather
than on a relabeled instruction list, so unrolling never has to invent
jump instructions: a node is (instruction, provenance) and control flow
lives in the successor lists.

Loop summarization replaces each natural loop by two unrolled copies.
Exit tests appear in both copies; the second copy's back edges are
deleted (a path that would iterate a third time simply ends there).
Irreducible control flow is rejected.  Calls are inlined with renamed
registers and labels; recursion is expanded twice and then abstracted
like an extern call; an extern call becomes a single abstract memory
operation over its pointer operands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import ir

EXIT = -1


def no_deadline() -> None:
    """The default ``tick``: there is no deadline to check."""


class CfgError(Exception):
    """Irreducible control flow or malformed call structure."""


@dataclass(unsafe_hash=True, slots=True)
class AbstractMemOp(ir.Decoded):
    """Summary of an unknown callee over its pointer operands.

    Stands for one memory access that may be a load or a store through
    any one of the pointer operands; the concrete choice is enumerated
    per candidate execution.
    """

    func: str
    pointer_args: tuple[str, ...]
    tag = "AMO"

    def __post_init__(self):
        self.reads, self.writes = self.pointer_args, ()

    def __str__(self):
        return f"abstract {self.func}({', '.join(self.pointer_args)})"


@dataclass(slots=True)
class ANode:
    """One acfg node: a (possibly transformed) instruction plus provenance.

    ``copy`` is the unroll-copy path: () outside any loop, (1,) / (2,)
    inside a summarized loop, one component per nesting level.  ``site``
    distinguishes inline instances of the same callee (the suffix also
    used for label renaming).  The provenance triple
    (func + site, index, copy) is total and injective over the graph.
    """

    instr: ir.Instr
    func: str
    index: int
    copy: tuple[int, ...] = ()
    site: str = ""

    @property
    def provenance(self) -> tuple[str, int, tuple[int, ...]]:
        return (self.func + self.site, self.index, self.copy)

    def describe(self) -> str:
        c = ".".join(map(str, self.copy)) if self.copy else "1"
        return f"{self.func}{self.site}[{self.index}]#{c}"


@dataclass
class ACfg:
    nodes: list[ANode]
    succ: list[list[int]]  # EXIT marks function/thread exit
    roots: list[int]
    program: ir.Program
    # What every event-structure walk of the graph reads (regions, joins,
    # steps, decoded instructions: ``events._WalkMaps``), made by the first.
    walk_maps: tuple | None = field(default=None, repr=False, compare=False)


# --------------------------------------------------------------------------
# inlining


def _rename_op(op: ir.Op, m: dict[str, str]) -> ir.Op:
    if not m:
        return op

    def rr(r: str) -> str:
        return m.get(r, r)

    def re_(e: ir.Expr) -> ir.Expr:
        if not e.regs:
            return e
        return ir.make_expr(ir.REG_RE.sub(lambda g: rr(g.group(0)), e.text))

    def ra(a: ir.AddressExpr) -> ir.AddressExpr:
        if isinstance(a, ir.Indexed) and isinstance(a.index, str):
            return replace(a, index=rr(a.index))
        if isinstance(a, ir.Indirect):
            return replace(a, reg=rr(a.reg))
        return a

    if isinstance(op, ir.Load):
        return ir.Load(ra(op.addr), rr(op.dest))
    if isinstance(op, ir.Store):
        return ir.Store(ra(op.addr), re_(op.value))
    if isinstance(op, ir.Alu):
        return ir.Alu(rr(op.dest), re_(op.expr))
    if isinstance(op, ir.BranchEqZero):
        return replace(op, cond=rr(op.cond))
    if isinstance(op, ir.Protect) and op.reg:
        return replace(op, reg=rr(op.reg))
    if isinstance(op, ir.Call):
        return replace(op, args=tuple(rr(a) for a in op.args))
    return op


def inline_calls(prog: ir.Program, fn: ir.Function, tick=no_deadline) -> list[ANode]:
    """Flatten ``fn`` with every call spliced in.

    Registers local to a callee are renamed fresh; parameters are
    substituted by the argument registers; labels get a per-instance
    suffix.  Recursive calls are expanded at most twice per function
    name and then abstracted over all their arguments.  ``tick`` runs once
    per instruction inlined: each level of calls can double the nodes.
    """
    fresh = None  # fresh register numbers, past every register the program names
    inst = itertools.count(1)

    def locals_of(f: ir.Function) -> set[str]:
        return {r for ins in f.body for r in ins.op.writes} - set(f.params)

    out: list[ANode] = []
    # One frame per open call: the function, its register map, its label
    # suffix, the expansion depth per name, and its remaining body.  A call
    # pushes its callee, so callee nodes land where the call stood, and the
    # call chain may be deeper than Python's recursion limit.
    frames = [(fn, {}, "", {fn.name: 1}, enumerate(fn.body))]
    while frames:
        f, m, suffix, depth, body = frames[-1]
        for idx, ins in body:
            tick()
            if not (m or suffix or ins.op.tag == "CALL"):
                out.append(ANode(ins, f.name, idx))  # nothing to rename
                continue
            op = _rename_op(ins.op, m)
            label = f"{ins.label}{suffix}" if ins.label else None
            if op.tag == "BR" or op.tag == "JMP":
                op = replace(op, target=op.target + suffix)
            if op.tag != "CALL":
                out.append(ANode(ir.Instr(op, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            name, args = op.func, op.args
            if name in prog.externs:
                k = prog.externs[name]
                amo = AbstractMemOp(name, args[:k])
                out.append(ANode(ir.Instr(amo, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            try:
                callee = prog.function(name)
            except KeyError:
                raise CfgError(f"line {ins.line}: call to undefined function "
                               f"{name!r}") from None
            if depth.get(name, 0) >= 2:
                # Recursion cut: abstract over all arguments.
                amo = AbstractMemOp(name, args)
                out.append(ANode(ir.Instr(amo, label, ins.line), f.name, idx,
                                 site=suffix))
                continue
            if len(args) != len(callee.params):
                raise CfgError(f"line {ins.line}: call to {name!r} with "
                               f"{len(args)} args, expected {len(callee.params)}")
            if fresh is None:
                used = [int(r[1:]) for g in prog.functions for r in g.params]
                used += [int(r[1:]) for g in prog.functions for i in g.body
                         for regs in (i.op.reads, i.op.writes) for r in regs]
                fresh = itertools.count(max(used, default=0) + 1)
            k = next(inst)
            cm = dict(zip(callee.params, args))
            for r in sorted(locals_of(callee)):
                cm[r] = f"r{next(fresh)}"
            if label is not None:
                # Keep the call site addressable as a branch target.
                out.append(ANode(ir.Instr(ir.Skip(), label, ins.line), f.name,
                                 idx, site=suffix))
            frames.append((callee, cm, f"{suffix}_i{k}",
                           {**depth, name: depth.get(name, 0) + 1},
                           enumerate(callee.body)))
            break
        else:
            frames.pop()
    return out


# --------------------------------------------------------------------------
# graph construction and loop summarization


def _graphify(flat: list[ANode]) -> tuple[list[ANode], list[list[int]]]:
    """Successors: the next node (``EXIT`` last), and a branch's target; a jump's alone."""
    labels: dict[str, int] = {}
    jumps: list[int] = []
    for pos, nd in enumerate(flat):
        if nd.instr.label:
            if nd.instr.label in labels:
                raise CfgError(f"duplicate label {nd.instr.label!r} after inlining")
            labels[nd.instr.label] = pos
        if nd.instr.op.tag == "BR" or nd.instr.op.tag == "JMP":
            jumps.append(pos)
    succ = [[pos] for pos in range(1, len(flat))] + [[EXIT]]
    for pos in jumps:
        op = flat[pos].instr.op
        target = labels[op.target]
        if op.tag == "JMP":
            succ[pos] = [target]
        elif target != succ[pos][0]:
            succ[pos].append(target)
    return flat, succ


def _node_name(nd: ANode) -> str:
    base = nd.instr.label or f"line {nd.instr.line}"
    return f"{base} ({nd.instr.op})"


def immediate_dominators(succ, root: int) -> dict[int, int]:
    """Immediate dominator of every node reachable from ``root``.

    ``succ`` maps a node to its successors.  The root maps to itself.
    Iterative Cooper-Harvey-Kennedy over reverse postorder.
    """
    post: list[int] = []
    seen = {root}
    stack = [(root, iter(succ.get(root, ())))]
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succ.get(nxt, ()))))
                break
        else:
            stack.pop()
            post.append(node)
    rank = {n: i for i, n in enumerate(post)}
    preds: dict[int, list[int]] = {}
    for u in post:
        for v in succ.get(u, ()):
            preds.setdefault(v, []).append(u)
    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for n in reversed(post[:-1]):
            new = None
            for p in preds[n]:
                if p not in idom:
                    continue
                while new is not None and p != new:  # walk up to the meet
                    while rank[p] < rank[new]:
                        p = idom[p]
                    while rank[new] < rank[p]:
                        new = idom[new]
                new = p
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom


def find_cycle(edges) -> list[int]:
    """The nodes of one cycle of the digraph ``edges`` in order; [] if acyclic.

    Kahn's algorithm peels source nodes.  Every node left has a predecessor
    among the rest, so walking predecessors from one of them revisits a node;
    the stretch between the two visits is a cycle.
    """
    out: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
    ready = [n for n in out if n not in indeg]
    while ready:
        for m in out.get(ready.pop(), ()):
            indeg[m] -= 1
            if not indeg[m]:
                ready.append(m)
    left = {n for n, d in indeg.items() if d}
    if not left:
        return []
    pred = {v: u for u in left for v in out.get(u, ()) if v in left}
    pos: dict[int, int] = {}
    n = min(left)
    while n not in pos:
        pos[n] = len(pos)
        n = pred[n]
    return list(pos)[pos[n]:][::-1]


def _find_back_edges(succ):
    fwd = {u: [s for s in ss if s != EXIT] for u, ss in enumerate(succ)}
    idom = immediate_dominators(fwd, 0)
    depth = {0: 0}  # in the dominator tree
    for n in idom:
        path = []
        while n not in depth:
            path.append(n)
            n = idom[n]
        for m in reversed(path):
            depth[m] = depth[idom[m]] + 1

    def dominates(a: int, b: int) -> bool:
        while depth[b] > depth[a]:  # a dominates b only from above
            b = idom[b]
        return a == b

    edges = [(u, v) for u in idom for v in fwd[u]]
    back = [(u, v) for u, v in edges if dominates(v, u)]
    return back, sorted(find_cycle(set(edges) - set(back)))


def _natural_loop(succ, h: int, srcs: list[int]) -> set[int]:
    pred: dict[int, list[int]] = {}
    for u, ss in enumerate(succ):
        for s in ss:
            if s != EXIT:
                pred.setdefault(s, []).append(u)
    loop = {h}
    stack = [u for u in srcs if u != h]
    while stack:
        n = stack.pop()
        if n in loop:
            continue
        loop.add(n)
        stack.extend(p for p in pred.get(n, []) if p not in loop)
    return loop


def _unroll(nodes, succ, h: int, srcs: list[int]):
    loop = _natural_loop(succ, h, srcs)
    new_nodes = list(nodes)
    new_succ = [list(ss) for ss in succ]
    clone_of: dict[int, int] = {}
    for n in sorted(loop):
        nd = nodes[n]
        new_nodes[n] = ANode(nd.instr, nd.func, nd.index, nd.copy + (1,), nd.site)
        clone_of[n] = len(new_nodes)
        new_nodes.append(ANode(nd.instr, nd.func, nd.index, nd.copy + (2,), nd.site))
        new_succ.append([])
    for u in srcs:  # first copy's back edges continue into the second copy
        new_succ[u] = [clone_of[h] if s == h else s for s in new_succ[u]]
    for n in sorted(loop):
        cs = []
        for s in succ[n]:
            if n in srcs and s == h:
                continue  # second copy's back edge: deleted
            cs.append(clone_of.get(s, s))
        new_succ[clone_of[n]] = cs or [EXIT]
    return new_nodes, new_succ


def _forward_only(succ: list[list[int]]) -> bool:
    """Whether every edge runs to a higher index (or to ``EXIT``): then index
    order is a topological order, so the graph has no cycle."""
    return all(s > u or s == EXIT for u, ss in enumerate(succ) for s in ss)


def summarize_loops(nodes: list[ANode], succ: list[list[int]]):
    """Unroll every natural loop twice; reject irreducible control flow.  A
    forward-only graph has neither, so it needs no dominator pass."""
    while not _forward_only(succ):
        back, offenders = _find_back_edges(succ)
        if offenders:
            names = ", ".join(_node_name(nodes[u]) for u in offenders)
            raise CfgError(f"irreducible control flow involving {names}")
        if not back:
            break
        h = min(t for _, t in back)
        srcs = sorted({u for u, t in back if t == h})
        nodes, succ = _unroll(nodes, succ, h, srcs)
    return nodes, succ


def build_acfg(prog: ir.Program, tick=no_deadline) -> ACfg:
    """Build the acyclic abstract CFG for a program.

    Single-thread programs are inlined from the entry function; threads
    become disjoint subgraphs with one root each.  ``tick`` runs once per
    instruction inlined (:func:`inline_calls`).
    """
    all_nodes: list[ANode] = []
    all_succ: list[list[int]] = []
    roots: list[int] = []
    fns = prog.functions if prog.multithread else [prog.entry_function]
    for fn in fns:
        if prog.multithread:
            flat = [ANode(ins, fn.name, i) for i, ins in enumerate(fn.body)]
        else:
            flat = inline_calls(prog, fn, tick)
        if not flat:
            continue
        nodes, succ = summarize_loops(*_graphify(flat))
        off = len(all_nodes)
        roots.append(off)
        all_nodes.extend(nodes)
        if off:
            succ = [[s if s == EXIT else s + off for s in ss] for ss in succ]
        all_succ.extend(succ)
    return ACfg(all_nodes, all_succ, roots, prog)


def to_dot(acfg: ACfg) -> str:
    """Render the acfg in graphviz dot format."""
    return "\n".join(_dot_lines(acfg)) + "\n"


def _dot_lines(acfg: ACfg):
    yield "digraph acfg {"
    yield '  node [fontname="monospace"];'
    for i, nd in enumerate(acfg.nodes):
        shape = "diamond" if nd.instr.op.tag == "BR" else "box"
        text = str(nd.instr.op).replace('"', r'\"')
        yield f'  n{i} [shape={shape}, label="{nd.describe()}\\n{text}"];'
    yield '  exit [shape=doublecircle, label="exit"];'
    for i, ss in enumerate(acfg.succ):
        for s in ss:
            yield f"  n{i} -> {'exit' if s == EXIT else f'n{s}'};"
    yield "}"
