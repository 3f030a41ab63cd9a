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

Each instruction is decoded once, when it is made (:class:`Decoded`), into
what the definite-assignment check, call inlining, the ACfg's edges and the
walk's node records read of it; none of them decodes it again.
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
# address expressions and instruction operands: an address has ``regs``, the
# registers it reads, and ``cell``, its location before alias resolution.


@dataclass(unsafe_hash=True, slots=True)
class Direct:
    """A named location: ``x``."""

    loc: str
    regs = ()
    cell = property(lambda self: self.loc)

    def __str__(self):
        return self.loc


@dataclass(unsafe_hash=True, slots=True)
class Indexed:
    """Base location plus register or constant index: ``A+r2``, ``C+0``."""

    base: str
    index: str | int
    regs: tuple[str, ...] = field(init=False, repr=False, compare=False)
    cell: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # a constant index names a cell of its own
        const = not isinstance(self.index, str)
        self.regs = () if const else (self.index,)
        self.cell = f"{self.base}.{self.index}" if const else self.base

    def __str__(self):
        return f"{self.base}+{self.index}"


@dataclass(unsafe_hash=True, slots=True)
class Indirect:
    """Load/store through a register holding a pointer: ``[r3]``; no cell."""

    reg: str
    regs = property(lambda self: (self.reg,))
    cell = None

    def __str__(self):
        return f"[{self.reg}]"


AddressExpr = Direct | Indexed | Indirect


@dataclass(unsafe_hash=True, slots=True)
class Expr:
    """An uninterpreted value expression; only its registers are meaningful."""

    text: str
    regs: tuple[str, ...]

    def __str__(self):
        return self.text


def make_expr(text: str) -> Expr:
    regs = REG_RE.findall(text) if "r" in text else ()
    return Expr(text, tuple(dict.fromkeys(regs)) if len(regs) > 1 else tuple(regs))


# --------------------------------------------------------------------------
# instructions


class Decoded:
    """An instruction as the later layers read it: ``reads`` and ``writes``,
    its registers, and per class a ``tag``, the kind of event a fetch of it
    emits (``R``, ``W``, ``BR``, ``F``, ``AMO``) or ``ALU``, ``JMP``, ``CALL``, ``SKIP``."""

    __slots__ = ("reads", "writes")

    def __post_init__(self):  # set even when empty, so copy and pickle see them
        self.reads = self.writes = ()


@dataclass(unsafe_hash=True, slots=True)
class Load(Decoded):
    addr: AddressExpr
    dest: str
    tag = "R"

    def __post_init__(self):
        self.reads, self.writes = self.addr.regs, (self.dest,)

    def __str__(self):
        return f"R {self.addr} ->{self.dest}"


@dataclass(unsafe_hash=True, slots=True)
class Store(Decoded):
    addr: AddressExpr
    value: Expr
    tag = "W"

    def __post_init__(self):
        self.reads, self.writes = self.addr.regs + self.value.regs, ()

    def __str__(self):
        return f"W {self.addr} <-{self.value}"


@dataclass(unsafe_hash=True, slots=True)
class Alu(Decoded):
    dest: str
    expr: Expr
    tag = "ALU"

    def __post_init__(self):
        self.reads, self.writes = self.expr.regs, (self.dest,)

    def __str__(self):
        return f"{self.dest} <-{self.expr}"


@dataclass(unsafe_hash=True, slots=True)
class BranchEqZero(Decoded):
    cond: str
    target: str
    tag = "BR"

    def __post_init__(self):
        self.reads, self.writes = (self.cond,), ()

    def __str__(self):
        return f"BEQZ {self.cond}, {self.target}"


@dataclass(unsafe_hash=True, slots=True)
class Jump(Decoded):
    target: str
    tag = "JMP"

    def __str__(self):
        return f"JMP {self.target}"


@dataclass(unsafe_hash=True, slots=True)
class Fence(Decoded):
    kind: str  # 'full' or 'lfence'
    tag = "F"

    def __str__(self):
        return "fence" if self.kind == "full" else "lfence"


@dataclass(unsafe_hash=True, slots=True)
class Protect(Decoded):
    reg: str | None = None
    tag = "F"
    kind = "lfence"  # it acts as one

    def __post_init__(self):
        self.reads, self.writes = (self.reg,) if self.reg else (), ()

    def __str__(self):
        return f"protect {self.reg}" if self.reg else "protect"


@dataclass(unsafe_hash=True, slots=True)
class Call(Decoded):
    func: str
    args: tuple[str, ...] = ()
    tag = "CALL"

    def __post_init__(self):
        self.reads, self.writes = self.args, ()

    def __str__(self):
        return f"call {self.func}({', '.join(self.args)})" if self.args else f"call {self.func}"


@dataclass(unsafe_hash=True, slots=True)
class Skip(Decoded):
    tag = "SKIP"

    def __str__(self):
        return "skip"


Op = Load | Store | Alu | BranchEqZero | Jump | Fence | Protect | Call | Skip


@dataclass(slots=True)
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
# A line's label, if it has one, and the leading word after it.
_HEAD = re.compile(r"(?:([A-Za-z_]\w*)\s*:\s*)?(\w*)")
_LOAD = re.compile(r"^R\s+(\S+)\s*->\s*(r\d+)$")
_STORE = re.compile(r"^W\s+(\S+)\s*<-\s*(.+)$")
_ALU = re.compile(r"^(r\d+)\s*<-\s*(.+)$")
_BEQZ = re.compile(r"^BEQZ\s+(r\d+)\s*,\s*(\w+)$")
_JMP = re.compile(r"^JMP\s+(\w+)$")
_CALL = re.compile(r"^call\s+(\w+)\s*(?:\(\s*([^)]*)\s*\))?$")
# An indirect or indexed address, a bare register, or a direct address.
_ADDR = re.compile(r"\[\s*(r\d+)\s*\]|(\w+)\+(r\d+|\d+)|(r\d+)|([A-Za-z_]\w*)")

_KEYWORDS = {"thread", "func", "alias", "extern", "call", "fence", "lfence",
             "protect", "skip", "BEQZ", "JMP", "R", "W"}
_HEADERS = {"alias": _DECL_ALIAS, "extern": _DECL_EXTERN, "thread": _HDR_THREAD,
            "func": _HDR_FUNC}


def _parse_addr(text: str, line: int) -> AddressExpr:
    m = _ADDR.fullmatch(text)
    if m is None:
        raise ParseError(f"malformed address expression {text!r}", line)
    reg, base, index, bare, loc = m.groups()
    if loc is not None:
        return Direct(loc)
    if base is not None:
        return Indexed(base, index if index.startswith("r") else int(index))
    if reg is not None:
        return Indirect(reg)
    raise ParseError(f"bare register {bare!r} as address; use [{bare}]", line)


# Each opcode's pattern by its leading word.
_PATTERNS = {"R": _LOAD, "W": _STORE, "BEQZ": _BEQZ, "JMP": _JMP, "call": _CALL}


def _parse_instr(text: str, word: str, line: int) -> Op:
    """The instruction ``text``, whose leading word is ``word``: only the
    pattern of that opcode is tried."""
    pattern = _PATTERNS.get(word, _ALU)  # an ALU op leads with its register
    m = pattern.match(text)
    if m and pattern is _ALU:
        return Alu(m[1], make_expr(m[2]))
    if m and word == "R":
        return Load(_parse_addr(m[1], line), m[2])
    if m and word == "W":
        return Store(_parse_addr(m[1], line), make_expr(m[2]))
    if m and word == "BEQZ":
        return BranchEqZero(m[1], m[2])
    if m and word == "JMP":
        return Jump(m[1])
    if m:  # a call
        args = tuple(a.strip() for a in (m[2] or "").split(",") if a.strip())
        for a in args:
            if not REG_RE.fullmatch(a):
                raise ParseError(f"call argument {a!r} is not a register", line)
        return Call(m[1], args)
    if text == "fence" or text == "lfence":
        return Fence("full" if text == "fence" else "lfence")
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
        m = _HEAD.match(stripped)
        label, word = m.groups()
        if label in _KEYWORDS:  # a keyword before a colon is no label
            label, word = None, label
        body = stripped[m.start(2):] if label else stripped
        m = label is None and word in _HEADERS and _HEADERS[word].match(stripped)
        if m:
            if word == "alias":
                aliases.append((m.group(1), m.group(2)))
            elif word == "extern":
                externs[m.group(1)] = int(m.group(2))
            elif word == "thread":
                if functions and not multithread:
                    raise ParseError("cannot mix thread blocks with other code", lineno)
                multithread = True
                saw_header = True
                open_block(Function(m.group(1), (), []))
            else:  # a func header
                if multithread:
                    raise ParseError("cannot mix func blocks with thread blocks", lineno)
                saw_header = True
                params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
                for p in params:
                    if not REG_RE.fullmatch(p):
                        raise ParseError(f"parameter {p!r} is not a register", lineno)
                open_block(Function(m.group(1), params, []))
            continue

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
        if multithread and op.tag == "CALL":
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
    for f, labels in zip(prog.functions, _resolve_labels(prog)):
        _check_defined_before_use(f, labels)
    return prog


def _resolve_labels(prog: Program) -> list[dict[str, int]]:
    """Resolve numeric branch targets to labels and check label references;
    each function's labels, by instruction index.

    A numeric target is a 1-based index into the enclosing function's
    instruction list; the target instruction gets a synthesized label
    ``L<n>`` if it has none, with ``_`` appended while another instruction
    has that label.
    """
    out = []
    for fn in prog.functions:
        labels: dict[str, int] = {}
        for i, ins in enumerate(fn.body):
            if ins.label:
                if ins.label in labels:
                    raise ParseError(f"duplicate label {ins.label!r}", ins.line)
                labels[ins.label] = i
        for ins in fn.body:
            if ins.op.tag != "BR" and ins.op.tag != "JMP":
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
        out.append(labels)
    return out


def _check_defined_before_use(fn: Function, labels: dict[str, int]):
    """Definite assignment: every register read is written on every path to it.
    Forward dataflow over a worklist, the first failing read reported; a lone
    successor whose set changes is visited next, as if pushed and popped."""
    body, n = fn.body, len(fn.body)
    if not n:
        return
    defined: list[set[str] | None] = [None] * n
    defined[0] = set(fn.params)
    work = [0]
    while work:
        i = work.pop()
        while True:
            have, op = defined[i], body[i].op
            if not have.issuperset(op.reads):
                missing = min(r for r in op.reads if r not in have)
                raise ParseError(f"register {missing} may be read before assignment",
                                 body[i].line)
            out = have if have.issuperset(op.writes) else have.union(op.writes)
            if op.tag == "BR" or op.tag == "JMP":
                target = labels[op.target]
                for j in sorted({i + 1, target}) if op.tag == "BR" else (target,):
                    if j < n and (defined[j] is None or not out >= defined[j]):
                        defined[j] = out if defined[j] is None else defined[j] & out
                        work.append(j)
                break
            i += 1
            if i == n or (defined[i] is not None and out >= defined[i]):
                break
            defined[i] = out if defined[i] is None else defined[i] & out


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
