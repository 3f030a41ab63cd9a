"""Litmus IR: a tiny assembly-like language for leakage litmus programs.

A program is a sequence of instructions, optionally organized into
functions (``func name(r1, r2):``) or threads (``thread t0:``).  A bare
instruction listing denotes a single entry function called ``main``.

One instruction per line::

    R A+r2 ->r4        ; load from A indexed by r2 into r4
    W tmp <-tmp&r5     ; store an uninterpreted expression to tmp
    r3 <-(r2<r1)       ; ALU: uninterpreted expression into r3
    BEQZ r3, done      ; branch to label (or 1-based line number) if r3 == 0
    JMP loop           ; unconditional jump
    fence              ; full fence
    lfence             ; load fence / speculation barrier
    protect r4         ; speculation barrier, acts as a full lfence
    call f(r1)         ; call a defined or extern function
    skip               ; no-op

Labels prefix an instruction (``done: skip``) or stand alone on a line.
Declarations ``alias (X, Y)`` and ``extern f/2`` may appear at the top;
``extern f/2`` declares ``f`` as an unknown external function taking two
pointer operands.  Comments run from ``;`` to end of line.

Value operands (right of ``<-``) are uninterpreted: only the registers
occurring in them matter for dataflow.  Registers are ``r`` + digits.
Distinct location names denote distinct addresses unless declared alias.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

REG_RE = re.compile(r"\br\d+\b")


class ParseError(Exception):
    """Syntax or semantic error in a litmus source, with a 1-based line."""

    def __init__(self, msg: str, line: int = 0):
        self.msg = msg
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


# --------------------------------------------------------------------------
# address expressions and instruction operands


@dataclass(frozen=True)
class Direct:
    """A named location: ``x``."""

    loc: str

    def __str__(self):
        return self.loc


@dataclass(frozen=True)
class Indexed:
    """Base location plus register or constant index: ``A+r2``, ``C+0``."""

    base: str
    index: str | int

    def __str__(self):
        return f"{self.base}+{self.index}"


@dataclass(frozen=True)
class Indirect:
    """Load/store through a register holding a pointer: ``[r3]``."""

    reg: str

    def __str__(self):
        return f"[{self.reg}]"


AddressExpr = Direct | Indexed | Indirect


@dataclass(frozen=True)
class Expr:
    """An uninterpreted value expression; only its registers are meaningful."""

    text: str
    regs: tuple[str, ...]

    def __str__(self):
        return self.text


def make_expr(text: str) -> Expr:
    seen: list[str] = []
    for r in REG_RE.findall(text):
        if r not in seen:
            seen.append(r)
    return Expr(text, tuple(seen))


# --------------------------------------------------------------------------
# instructions


@dataclass(frozen=True)
class Load:
    addr: AddressExpr
    dest: str

    def __str__(self):
        return f"R {self.addr} ->{self.dest}"


@dataclass(frozen=True)
class Store:
    addr: AddressExpr
    value: Expr

    def __str__(self):
        return f"W {self.addr} <-{self.value}"


@dataclass(frozen=True)
class Alu:
    dest: str
    expr: Expr

    def __str__(self):
        return f"{self.dest} <-{self.expr}"


@dataclass(frozen=True)
class BranchEqZero:
    cond: str
    target: str

    def __str__(self):
        return f"BEQZ {self.cond}, {self.target}"


@dataclass(frozen=True)
class Jump:
    target: str

    def __str__(self):
        return f"JMP {self.target}"


@dataclass(frozen=True)
class Fence:
    kind: str  # 'full' or 'lfence'

    def __str__(self):
        return "fence" if self.kind == "full" else "lfence"


@dataclass(frozen=True)
class Protect:
    reg: str | None = None

    def __str__(self):
        return f"protect {self.reg}" if self.reg else "protect"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple[str, ...] = ()

    def __str__(self):
        return f"call {self.func}({', '.join(self.args)})" if self.args else f"call {self.func}"


@dataclass(frozen=True)
class Skip:
    def __str__(self):
        return "skip"


Op = Load | Store | Alu | BranchEqZero | Jump | Fence | Protect | Call | Skip


@dataclass
class Instr:
    op: Op
    label: str | None = None
    line: int = 0

    def __str__(self):
        return f"{self.label}: {self.op}" if self.label else str(self.op)


@dataclass
class Function:
    name: str
    params: tuple[str, ...]
    body: list[Instr]


@dataclass
class Program:
    functions: list[Function]
    entry: str
    aliases: tuple[tuple[str, str], ...] = ()
    externs: dict[str, int] = field(default_factory=dict)
    multithread: bool = False

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def entry_function(self) -> Function:
        return self.function(self.entry)


# --------------------------------------------------------------------------
# parsing

_DECL_ALIAS = re.compile(r"^alias\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)$")
_DECL_EXTERN = re.compile(r"^extern\s+(\w+)\s*/\s*(\d+)$")
_HDR_THREAD = re.compile(r"^thread\s+(\w+)\s*:$")
_HDR_FUNC = re.compile(r"^func\s+(\w+)\s*\(\s*([^)]*)\s*\)\s*:$")
_LABEL = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(.*)$")
_LOAD = re.compile(r"^R\s+(\S+)\s*->\s*(r\d+)$")
_STORE = re.compile(r"^W\s+(\S+)\s*<-\s*(.+)$")
_ALU = re.compile(r"^(r\d+)\s*<-\s*(.+)$")
_BEQZ = re.compile(r"^BEQZ\s+(r\d+)\s*,\s*(\w+)$")
_JMP = re.compile(r"^JMP\s+(\w+)$")
_CALL = re.compile(r"^call\s+(\w+)\s*(?:\(\s*([^)]*)\s*\))?$")
_ADDR_INDEXED = re.compile(r"^(\w+)\+(r\d+|\d+)$")
_ADDR_INDIRECT = re.compile(r"^\[\s*(r\d+)\s*\]$")
_ADDR_DIRECT = re.compile(r"^[A-Za-z_]\w*$")

_KEYWORDS = {"thread", "func", "alias", "extern", "call", "fence", "lfence",
             "protect", "skip", "BEQZ", "JMP", "R", "W"}
_HEADERS = {"alias": _DECL_ALIAS, "extern": _DECL_EXTERN, "thread": _HDR_THREAD,
            "func": _HDR_FUNC}


def _parse_addr(text: str, line: int) -> AddressExpr:
    m = _ADDR_INDIRECT.match(text)
    if m:
        return Indirect(m.group(1))
    m = _ADDR_INDEXED.match(text)
    if m:
        base, idx = m.group(1), m.group(2)
        return Indexed(base, idx if idx.startswith("r") else int(idx))
    if _ADDR_DIRECT.match(text):
        if REG_RE.fullmatch(text):
            raise ParseError(f"bare register {text!r} as address; use [{text}]", line)
        return Direct(text)
    raise ParseError(f"malformed address expression {text!r}", line)


# Each opcode's pattern by its leading word (an ALU op leads with its register).
_PATTERNS = {"R": _LOAD, "W": _STORE, "BEQZ": _BEQZ, "JMP": _JMP, "call": _CALL}
_WORD = re.compile(r"\w*")


def _parse_instr(text: str, word: str, line: int) -> Op:
    """The instruction ``text``, whose leading word is ``word``: only the
    pattern of that opcode is tried."""
    pattern = _PATTERNS.get(word) or (REG_RE.fullmatch(word) and _ALU)
    m = pattern and pattern.match(text)
    if m and word == "R":
        return Load(_parse_addr(m.group(1), line), m.group(2))
    if m and word == "W":
        return Store(_parse_addr(m.group(1), line), make_expr(m.group(2).strip()))
    if m and word == "BEQZ":
        return BranchEqZero(m.group(1), m.group(2))
    if m and word == "JMP":
        return Jump(m.group(1))
    if m and word == "call":
        args = tuple(a.strip() for a in (m.group(2) or "").split(",") if a.strip())
        for a in args:
            if not REG_RE.fullmatch(a):
                raise ParseError(f"call argument {a!r} is not a register", line)
        return Call(m.group(1), args)
    if m:
        return Alu(m.group(1), make_expr(m.group(2).strip()))
    if text == "fence":
        return Fence("full")
    if text == "lfence":
        return Fence("lfence")
    if text == "skip":
        return Skip()
    if text == "protect" or text.startswith("protect "):
        rest = text[len("protect"):].strip()
        if rest and not REG_RE.fullmatch(rest):
            raise ParseError(f"protect takes a register operand, got {rest!r}", line)
        return Protect(rest or None)
    opcode = text.split()[0] if text.split() else text
    raise ParseError(f"unknown opcode or malformed instruction: {opcode!r}", line)


def parse(text: str) -> Program:
    """Parse litmus source into a :class:`Program` and validate it.

    Raises :class:`ParseError` for syntax errors, undefined labels,
    duplicate labels, and registers read before any assignment on some
    control-flow path.
    """
    aliases: list[tuple[str, str]] = []
    externs: dict[str, int] = {}
    functions: list[Function] = []
    multithread = False
    cur: Function | None = None
    pending_label: str | None = None
    pending_line = 0
    saw_header = False

    def open_block(fn: Function):
        nonlocal cur, pending_label
        if pending_label is not None:
            raise ParseError(f"dangling label {pending_label!r} before block header",
                             pending_line)
        cur = fn
        functions.append(fn)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";", 1)[0].strip()
        if not stripped:
            continue

        # Dispatch on the leading word: a header, else a (labelled) instruction.
        word = _WORD.match(stripped).group()
        m = word in _HEADERS and _HEADERS[word].match(stripped)
        if m and word == "alias":
            aliases.append((m.group(1), m.group(2)))
            continue
        if m and word == "extern":
            externs[m.group(1)] = int(m.group(2))
            continue
        if m and word == "thread":
            if functions and not multithread:
                raise ParseError("cannot mix thread blocks with other code", lineno)
            multithread = True
            saw_header = True
            open_block(Function(m.group(1), (), []))
            continue
        if m:  # a func header
            if multithread:
                raise ParseError("cannot mix func blocks with thread blocks", lineno)
            saw_header = True
            params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
            for p in params:
                if not REG_RE.fullmatch(p):
                    raise ParseError(f"parameter {p!r} is not a register", lineno)
            open_block(Function(m.group(1), params, []))
            continue

        label = None
        body = stripped
        m = ":" in stripped and _LABEL.match(stripped)
        if m and m.group(1) not in _KEYWORDS:
            label, body = m.group(1), m.group(2).strip()
            word = _WORD.match(body).group()
        if label and not body:
            if pending_label is not None:
                raise ParseError(f"two labels ({pending_label!r}, {label!r}) "
                                 "for one instruction", lineno)
            pending_label, pending_line = label, lineno
            continue

        if cur is None:
            if saw_header:
                raise ParseError("instruction outside any block", lineno)
            cur = Function("main", (), [])
            functions.append(cur)

        op = _parse_instr(body, word, lineno)
        if multithread and isinstance(op, Call):
            raise ParseError("call is not allowed inside thread blocks", lineno)
        if pending_label is not None:
            if label is not None:
                raise ParseError(f"two labels ({pending_label!r}, {label!r}) "
                                 "for one instruction", lineno)
            label, pending_label = pending_label, None
        cur.body.append(Instr(op, label, lineno))

    if pending_label is not None:
        raise ParseError(f"dangling label {pending_label!r} at end of input",
                         pending_line)
    if not functions:
        raise ParseError("empty program", 1)

    names = [f.name for f in functions]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"duplicate function or thread name {dup!r}")
    entry = ""
    if not multithread:
        entry = "main" if "main" in names else names[0]

    prog = Program(functions, entry, tuple(aliases), externs, multithread)
    _resolve_labels(prog)
    for f in prog.functions:
        _check_defined_before_use(f)
    return prog


def _resolve_labels(prog: Program):
    """Resolve numeric branch targets to labels and check label references.

    A numeric target is a 1-based index into the enclosing function's
    instruction list; the target instruction gets a synthesized label
    ``L<n>`` if it has none, with ``_`` appended while another instruction
    has that label.
    """
    for fn in prog.functions:
        labels: dict[str, int] = {}
        for i, ins in enumerate(fn.body):
            if ins.label:
                if ins.label in labels:
                    raise ParseError(f"duplicate label {ins.label!r}", ins.line)
                labels[ins.label] = i
        for ins in fn.body:
            if not isinstance(ins.op, (BranchEqZero, Jump)):
                continue
            tgt = ins.op.target
            if tgt.isdigit():
                n = int(tgt)
                if not 1 <= n <= len(fn.body):
                    raise ParseError(f"branch target line {n} out of range", ins.line)
                dest = fn.body[n - 1]
                if dest.label is None:
                    dest.label = f"L{n}"
                    while dest.label in labels:
                        dest.label += "_"
                    labels[dest.label] = n - 1
                ins.op = replace(ins.op, target=dest.label)
            elif tgt not in labels:
                raise ParseError(f"undefined label {tgt!r}", ins.line)


def successors(fn: Function, i: int, labels: dict[str, int]) -> list[int]:
    """Indices of the possible next instructions after ``fn.body[i]``.

    ``labels`` maps each label of ``fn`` to its index;
    ``len(fn.body)`` stands for function exit.
    """
    op = fn.body[i].op
    if isinstance(op, Jump):
        return [labels[op.target]]
    if isinstance(op, BranchEqZero):
        return sorted({i + 1, labels[op.target]})
    return [i + 1]


def _check_defined_before_use(fn: Function):
    """Definite-assignment: every register read must be written on all paths."""
    n = len(fn.body)
    if n == 0:
        return
    # Forward dataflow, intersection over predecessors.
    defined: list[set[str] | None] = [None] * n
    defined[0] = set(fn.params)
    labels = {ins.label: j for j, ins in enumerate(fn.body) if ins.label}
    defuse = [instr_defuse(ins.op) for ins in fn.body]
    work = [0]
    while work:
        i = work.pop()
        du = defuse[i]
        missing = du.reads - defined[i]
        if missing:
            raise ParseError(
                f"register {sorted(missing)[0]} may be read before assignment",
                fn.body[i].line)
        out = defined[i] | du.writes
        for j in successors(fn, i, labels):
            if j >= n:
                continue
            if defined[j] is None:
                defined[j] = set(out)
                work.append(j)
            elif not out >= defined[j]:
                defined[j] &= out
                work.append(j)


# --------------------------------------------------------------------------
# def/use


@dataclass(frozen=True)
class DefUse:
    reads: frozenset[str]
    writes: frozenset[str]


def address_regs(addr: AddressExpr) -> frozenset[str]:
    if isinstance(addr, Indexed) and isinstance(addr.index, str):
        return frozenset([addr.index])
    if isinstance(addr, Indirect):
        return frozenset([addr.reg])
    return frozenset()


def instr_defuse(op: Op) -> DefUse:
    """Registers read and written by one opcode."""
    e = frozenset()
    if isinstance(op, Load):
        return DefUse(address_regs(op.addr), frozenset([op.dest]))
    if isinstance(op, Store):
        return DefUse(address_regs(op.addr) | frozenset(op.value.regs), e)
    if isinstance(op, Alu):
        return DefUse(frozenset(op.expr.regs), frozenset([op.dest]))
    if isinstance(op, BranchEqZero):
        return DefUse(frozenset([op.cond]), e)
    if isinstance(op, Protect) and op.reg:
        return DefUse(frozenset([op.reg]), e)
    if isinstance(op, Call):
        return DefUse(frozenset(op.args), e)
    return DefUse(e, e)


# --------------------------------------------------------------------------
# pretty printing


def pretty(prog: Program) -> str:
    """Render a program back to source; ``parse(pretty(p))`` is stable."""
    out: list[str] = []
    for a, b in prog.aliases:
        out.append(f"alias ({a}, {b})")
    for name, n in sorted(prog.externs.items()):
        out.append(f"extern {name}/{n}")
    bare = (not prog.multithread and len(prog.functions) == 1
            and prog.functions[0].name == "main" and not prog.functions[0].params)
    for fn in prog.functions:
        if bare:
            out.extend(str(ins) for ins in fn.body)
            continue
        if prog.multithread:
            out.append(f"thread {fn.name}:")
        else:
            out.append(f"func {fn.name}({', '.join(fn.params)}):")
        out.extend(f"  {ins}" for ins in fn.body)
    return "\n".join(out) + "\n"
