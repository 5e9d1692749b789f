"""Native backend of the compiled engine: generated lane kernels in C.

:func:`lower` translates the generated lane-kernel source
(:func:`repro.engine.compiled.generate_kernel_source`, the very string
the Python backend ``exec``s) into C by walking its :mod:`ast`.  There
is no hand-written C loop: the emit sequence stays the one source of the
loop semantics, and the lowering only maps Python operations onto C ones
with the same IEEE-754 results:

* every value is a ``double``, except the names the caller declares
  integer (loop index, record and event counters) or boolean;
* binary operations keep Python's evaluation order (each one is
  parenthesised) and the library is built with ``-ffp-contract=off
  -fno-fast-math``, so no multiply-add is fused and nothing is
  reassociated;
* float ``%`` is ``fmod`` plus CPython's ``float_rem`` sign fix-up;
* ``floor``/``trunc``/``round`` return Python ints, which have no
  negative zero, so they lower to ``floor``/``trunc``/``nearbyint`` plus
  ``0.0`` (``-0.0 + 0.0`` is ``+0.0``; every other value is unchanged).
  ``nearbyint`` rounds ties to even, as ``round`` does.  Python raises
  on an infinite or NaN argument where C returns it, so the lowered call
  sets a flag instead, and a kernel that set it returns -1 in place of
  its return value: the caller raises where Python would have;
* ``sin``/``cos`` call the C library's, which is what :mod:`math` calls;
  ``x ** k`` (a whole-number literal ``k``) is CPython's float power:
  its special cases, then the C library's ``pow`` (never folded into a
  multiplication: ``-fno-builtin-pow``), and an overflow sets the flag
  as a rounding of inf does.

The source binds the arrays its loop reads at its top level, to an
argument or to a literal row of a 2-D one, through ``.tolist()`` where
Python reads them per sample; the lowering reads each binding as a
pointer into the argument.  A binding ``draw(noise[k], sigma, row)``
first fills the row with the next values of a noise source: the Python
kernel with the source's block draw, C with a loop calling NumPy's
``random_normal`` (linked from ``numpy/random/lib/libnpyrandom.a``) on
the source's bit generator, so both draw as many values in the same
order whatever the loop does with them.  A call
(:func:`bind`) takes each array's data pointer from the buffer protocol,
which also refuses a layout C cannot read, and each source's bit
generator, holding its lock during the call.

:func:`load_or_build` builds the C source with the system compiler into
a persistent on-disk cache shared by every checkout on the host
(:func:`cache_dir`, keyed by :func:`cache_key`), so a plan compiles once
per host, not once per process.  A library is only ever loaded if its
bytes hash to the SHA-256 recorded when it passed its self-check, and
loading a cached library starts no process.
"""

from __future__ import annotations

import ast
import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import uuid
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

#: Compiler flags; part of every cache key.  ``-fno-builtin-pow`` keeps
#: every ``pow`` a call of the C library's, which CPython's ``**`` calls
#: (gcc would fold ``pow(x, 2.0)`` into ``x*x``, which differs).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math",
         "-fno-builtin-pow")
LIBS = ("-lm",)
#: NumPy's C random library, whose ``random_normal`` the kernels draw
#: noise with, and the include directory of its ``bitgen.h``.
#: The library's SHA-256 and the NumPy version join every cache key.
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
NUMPY_INCLUDE = np.get_include()

_PRELUDE = """\
#include <math.h>
#include <stdint.h>
#include <numpy/random/bitgen.h>

/* numpy/random/distributions.h needs Python.h, so declared here */
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

/* the next value of a noise source: NumPy's normal(0, sigma) drawn from
   its bit generator, or 0.0 without a draw when sigma is 0 (what
   BufferedGaussianNoise hands out) */
static inline double py_draw(bitgen_t *bitgen, double sigma)
{
    return sigma != 0.0 ? random_normal(bitgen, 0.0, sigma) : 0.0;
}

/* CPython's float ** for an exponent that is a whole number >= 0: its
   special cases, then the C library's pow of |x|; Python raises where
   the result overflows, so that sets *failed */
static double py_pow(double x, double y, int *failed)
{
    int odd = fmod(y, 2.0) == 1.0, negate = 0;
    double r;
    if (y == 0.0)
        return 1.0;
    if (isnan(x))
        return x;
    if (isinf(x))
        return odd ? x : fabs(x);
    if (x == 0.0)
        return odd ? x : 0.0;
    if (x < 0.0) {
        x = -x;
        negate = odd;
    }
    if (x == 1.0)
        return negate ? -1.0 : 1.0;
    r = pow(x, y);
    *failed |= isinf(r);
    return negate ? -r : r;
}

/* CPython's float_rem: the remainder takes the sign of the divisor */
static double py_fmod(double x, double y)
{
    double mod = fmod(x, y);
    if (mod != 0.0) {
        if ((y < 0.0) != (mod < 0.0))
            mod += y;
    } else {
        mod = copysign(0.0, y);
    }
    return mod;
}

/* Python's integer %: floored */
static int64_t py_imod(int64_t x, int64_t y)
{
    int64_t mod = x % y;
    if (mod != 0 && ((y < 0) != (mod < 0)))
        mod += y;
    return mod;
}

/* math.floor, math.trunc and round: Python ints have no negative zero,
   and Python raises on inf and nan, so those set *failed */
static inline double py_round(double (*round)(double), double x,
                              int *failed)
{
    *failed |= !isfinite(x);
    return round(x) + 0.0;
}
"""

_C_TYPES = {"double": "double", "int": "int64_t", "bool": "int"}
_ARRAY_C_TYPES = {"double": "double", "int": "int64_t",
                  "bool": "unsigned char"}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMPOPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}
#: Python calls the lowering knows, as ``name -> (C template, type)``.
_CALLS = {
    "floor": ("py_round(floor, {}, &failed)", "double"),
    "trunc": ("py_round(trunc, {}, &failed)", "double"),
    "rnd": ("py_round(nearbyint, {}, &failed)", "double"),
    "sin": ("sin({})", "double"),
    "cos": ("cos({})", "double"),
    "int": ("((int64_t)({}))", "int"),
}
#: Functions the Python kernel binds to locals at its top level
#: (``floor = _floor``), a binding the lowering skips.
_BOUND = frozenset(_CALLS) | {"draw"}


class LoweringError(Exception):
    """The generated source used a construct the C lowering does not know."""


class BuildError(Exception):
    """A library could not be built, or it failed its self-check."""


class _Lowering:
    """One function's Python AST to C, statement by statement."""

    def __init__(self, fn: ast.FunctionDef, scalars: Sequence[str],
                 ints: Sequence[str], bools: Sequence[str],
                 array_types: Dict[str, str], matrices: Sequence[str]):
        args = [a.arg for a in fn.args.args]
        self.scalars = [a for a in args if a in scalars]
        self.arrays = [a for a in args if a not in scalars]
        self.array_types = {a: array_types.get(a, "double")
                            for a in self.arrays}
        self.matrices = set(matrices)
        # every name that points into an array argument, as
        # ``(argument, row)``; the row is None for the whole argument
        self.views = {a: (a, None) for a in self.arrays
                      if self.array_types[a] != "stream"}
        self.types = {name: "int" for name in ints}
        self.types.update((name, "int") for name in self.scalars)
        self.types.update((name, "bool") for name in bools)
        self.assigned: Dict[str, None] = {}  # locals, in first-use order
        self.lengths: list = []  # (array position, axis) of each length
        self.lines: list = []
        self.loops = 0
        self.sources: list = []  # (array position, index) of each drawn

    def length(self, argument: str, axis: int) -> str:
        """The C parameter holding ``argument``'s shape along ``axis``."""
        key = (self.arrays.index(argument), axis)
        if key not in self.lengths:
            self.lengths.append(key)
        return f"len{axis}_{argument}"

    def matrix(self, node) -> bool:
        """Whether ``node`` names a whole 2-D array argument or view."""
        view = isinstance(node, ast.Name) and self.views.get(node.id)
        return bool(view) and view[1] is None and view[0] in self.matrices

    @staticmethod
    def unlist(value):
        """``value`` without a trailing ``.tolist()``."""
        if (isinstance(value, ast.Call) and not value.args
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "tolist"):
            return value.func.value
        return value

    def bind_view(self, name: str, value, depth: int) -> bool:
        """Lower ``name = a`` or ``name = m[k]``, either maybe ``.tolist()``.

        ``name`` then points at the array or view ``a``, or at row ``k``
        (an int literal) of the 2-D ``m``; a ``.tolist()`` copy, which the
        Python kernel only reads, is the same pointer.  False when
        ``value`` is neither.
        """
        node, row = self.unlist(value), None
        if isinstance(node, ast.Subscript) and self.matrix(node.value):
            if not (isinstance(node.slice, ast.Constant)
                    and type(node.slice.value) is int):
                raise LoweringError(
                    f"row index is not a literal in {ast.unparse(value)!r}")
            node, row = node.value, node.slice.value
        if not (isinstance(node, ast.Name) and node.id in self.views):
            return False
        if depth != 1 or name in self.views or name in self.assigned:
            raise LoweringError(f"cannot bind {name!r} here")
        argument, source_row = self.views[node.id]
        self.views[name] = (argument, source_row if row is None else row)
        pointer = f"a_{node.id}" if row is None else \
            f"a_{node.id} + {row} * {self.length(argument, 1)}"
        ctype = _ARRAY_C_TYPES[self.array_types[argument]]
        self.emit(depth, f"{ctype} *a_{name} = {pointer};")
        return True

    def bind_draw(self, name: str, value, depth: int) -> bool:
        """Lower ``name = draw(s[k], sigma, v)``, maybe ``.tolist()``.

        ``s`` is a stream argument, ``k`` an int literal and ``v`` a
        float array or row that ``name = v`` would bind: the call fills
        ``v`` with the next values of noise source ``k``, one per
        element, and ``name`` then points at ``v``.  False when
        ``value`` is no ``draw`` call.
        """
        call = self.unlist(value)
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "draw"):
            return False
        if len(call.args) != 3 or call.keywords:
            raise LoweringError(f"cannot lower {ast.unparse(value)!r}")
        source, sigma, target = call.args
        if not (isinstance(source, ast.Subscript)
                and isinstance(source.value, ast.Name)
                and self.array_types.get(source.value.id) == "stream"
                and isinstance(source.slice, ast.Constant)
                and type(source.slice.value) is int):
            raise LoweringError(
                f"draw() needs a stream argument's source by literal index, "
                f"not {ast.unparse(source)!r}")
        key = (self.arrays.index(source.value.id), source.slice.value)
        if key in self.sources or not self.bind_view(name, target, depth):
            raise LoweringError(f"cannot lower {ast.unparse(value)!r}")
        argument, row = self.views[name]
        if self.array_types[argument] != "double" or (
                row is None and argument in self.matrices):
            raise LoweringError(f"draw() fills a float array or row, "
                                f"not {ast.unparse(target)!r}")
        self.sources.append(key)
        count = self.length(argument, 0 if row is None else 1)
        self.emit(depth, f"for (int64_t i_{name} = 0; i_{name} < {count}; "
                  f"i_{name}++)")
        self.emit(depth + 1, f"a_{name}[i_{name}] = py_draw("
                  f"g_{source.value.id}_{key[1]}, {self.expr(sigma)[0]});")
        return True

    def type_of(self, name: str) -> str:
        return self.types.get(name, "double")

    # -- expressions -------------------------------------------------------

    def expr(self, node) -> Tuple[str, str]:
        """``(C expression, type)`` of a Python expression."""
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                return ("1" if value else "0"), "bool"
            if isinstance(value, int):
                text = str(value) if abs(value) < 2 ** 31 \
                    else f"INT64_C({value})"
                return text, "int"
            if isinstance(value, float):
                return f"({value.hex()})", "double"
        elif isinstance(node, ast.Name):
            if node.id not in self.views:
                return f"v_{node.id}", self.type_of(node.id)
        elif isinstance(node, ast.BinOp):
            left, lt = self.expr(node.left)
            right, rt = self.expr(node.right)
            both_int = lt != "double" and rt != "double"
            if type(node.op) in _BINOPS:
                op = _BINOPS[type(node.op)]
                return (f"({left} {op} {right})",
                        "int" if both_int else "double")
            if isinstance(node.op, ast.Div):
                return f"((double)({left}) / (double)({right}))", "double"
            if isinstance(node.op, ast.Mod):
                if both_int:
                    return f"py_imod({left}, {right})", "int"
                return f"py_fmod({left}, {right})", "double"
            if (isinstance(node.op, ast.Pow) and lt == "double"
                    and isinstance(node.right, ast.Constant)
                    and type(node.right.value) is int
                    and node.right.value >= 0):
                return f"py_pow({left}, {right}, &failed)", "double"
        elif isinstance(node, ast.UnaryOp):
            operand, ot = self.expr(node.operand)
            if isinstance(node.op, ast.USub):
                return f"(-{operand})", "int" if ot == "bool" else ot
            if isinstance(node.op, ast.Not):
                return f"(!{operand})", "bool"
        elif isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            values = (self.expr(v)[0] for v in node.values)
            return "(" + op.join(values) + ")", "bool"
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and type(node.ops[0]) in _CMPOPS:
            left = self.expr(node.left)[0]
            right = self.expr(node.comparators[0])[0]
            return f"({left} {_CMPOPS[type(node.ops[0])]} {right})", "bool"
        elif isinstance(node, ast.IfExp):
            test = self.expr(node.test)[0]
            body, bt = self.expr(node.body)
            other, ot = self.expr(node.orelse)
            kind = bt if bt == ot else "double"
            return f"({test} ? {body} : {other})", kind
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == 1 and not node.keywords):
            name = node.func.id
            if name == "len" and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id in self.views:
                argument, row = self.views[node.args[0].id]
                return self.length(argument, 0 if row is None else 1), "int"
            if name in _CALLS:
                template, kind = _CALLS[name]
                return template.format(self.expr(node.args[0])[0]), kind
        elif isinstance(node, ast.Subscript):
            return self.subscript(node)
        raise LoweringError(f"cannot lower {ast.unparse(node)!r}")

    def subscript(self, node: ast.Subscript) -> Tuple[str, str]:
        """``(C element, type)`` of an element of a 1-D array or view."""
        name = node.value.id if isinstance(node.value, ast.Name) else None
        if name not in self.views or self.matrix(node.value):
            raise LoweringError(f"cannot lower {ast.unparse(node)!r}")
        index, kind = self.expr(node.slice)
        if kind == "double":
            raise LoweringError(f"float index in {ast.unparse(node)!r}")
        return f"a_{name}[{index}]", self.array_types[self.views[name][0]]

    # -- statements --------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def assign(self, target, value_node, depth: int) -> None:
        if isinstance(target, ast.Name) and (
                self.bind_draw(target.id, value_node, depth)
                or self.bind_view(target.id, value_node, depth)
                or (depth == 1 and target.id in _BOUND  # floor = _floor
                    and isinstance(value_node, ast.Name))):
            return
        value, kind = self.expr(value_node)
        if isinstance(target, ast.Name) and target.id not in self.views:
            declared = self.type_of(target.id)
            if declared != "double" and kind == "double":
                raise LoweringError(
                    f"float assigned to {declared} name {target.id!r}")
            if target.id not in self.scalars:
                self.assigned[target.id] = None
            self.emit(depth, f"v_{target.id} = {value};")
        elif isinstance(target, ast.Subscript):
            slot, kind_slot = self.subscript(target)
            if kind_slot == "bool":
                value = f"({value} != 0)"
            self.emit(depth, f"{slot} = {value};")
        else:
            raise LoweringError(f"cannot assign to {ast.unparse(target)!r}")

    def block(self, stmts, depth: int) -> None:
        for stmt in stmts:
            self.statement(stmt, depth)

    def statement(self, stmt, depth: int) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self.assign(stmt.targets[0], stmt.value, depth)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            load = ast.Name(stmt.target.id, ast.Load())
            self.assign(stmt.target, ast.BinOp(load, stmt.op, stmt.value),
                        depth)
        elif isinstance(stmt, ast.If):
            self.emit(depth, f"if ({self.expr(stmt.test)[0]}) {{")
            self.block(stmt.body, depth + 1)
            if stmt.orelse:
                self.emit(depth, "} else {")
                self.block(stmt.orelse, depth + 1)
            self.emit(depth, "}")
        elif (isinstance(stmt, ast.For) and not stmt.orelse
              and isinstance(stmt.target, ast.Name)
              and self.type_of(stmt.target.id) == "int"
              and isinstance(stmt.iter, ast.Call)
              and isinstance(stmt.iter.func, ast.Name)
              and stmt.iter.func.id == "range"
              and len(stmt.iter.args) == 1):
            stop, kind = self.expr(stmt.iter.args[0])
            if kind == "double":
                raise LoweringError("range() over a float")
            bound = f"stop_{self.loops}"
            self.loops += 1
            self.assigned[stmt.target.id] = None
            var = f"v_{stmt.target.id}"
            # range() evaluates its bound once, before the first pass
            self.emit(depth, f"const int64_t {bound} = {stop};")
            self.emit(depth, f"for ({var} = 0; {var} < {bound}; {var}++) {{")
            self.block(stmt.body, depth + 1)
            self.emit(depth, "}")
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.emit(depth, "return failed ? INT64_C(-1) : "
                      f"(int64_t)({self.expr(stmt.value)[0]});")
        else:
            raise LoweringError(f"cannot lower {ast.unparse(stmt)!r}")


def lower(source: str, scalars: Sequence[str], ints: Sequence[str] = (),
          bools: Sequence[str] = (), array_types: Optional[Dict] = None,
          matrices: Sequence[str] = ()) -> Tuple[str, Tuple]:
    """Lower one generated Python function to a C translation unit.

    ``scalars`` names the arguments passed by value (as ``int64``); every
    other argument is a C-contiguous array of ``array_types[name]``
    (``"double"`` by default, or ``"int"``/``"bool"``), 2-D if
    ``matrices`` names it, or a sequence of noise sources if its type is
    ``"stream"``.  The C function is::

        int64_t kernel(int64_t <scalar>..., int64_t len<axis>_<array>...,
                       <type> *<array>..., bitgen_t *<source>...);

    The code reads arrays through views bound at its top level, ``x = a``
    or ``x = m[k]`` (a row), either maybe through ``.tolist()``; a
    top-level ``floor = _floor`` (the Python kernel's local binding) is
    skipped.  A top-level ``x = draw(s[k], sigma, v)`` binds ``x`` as
    ``x = v`` would, after filling the float array or row ``v`` with the
    next values of source ``k`` of stream argument ``s``, whose sigma is
    ``sigma``: C passes the source's bit generator and draws each value
    with ``random_normal``, as :meth:`BufferedGaussianNoise.take
    <repro.common.noise.BufferedGaussianNoise.take>` does in blocks.
    ``x ** k`` takes a whole-number literal ``k >= 0``.  A ``return``
    returns -1 instead of its value once a rounding or a power has met a
    value on which Python raises.  Returns ``(c_source, signature)``, the
    signature for :func:`bind`.  Raises :class:`LoweringError` on a
    construct it does not know.
    """
    fn = ast.parse(source).body[0]
    if not isinstance(fn, ast.FunctionDef):
        raise LoweringError("expected one function definition")
    low = _Lowering(fn, scalars, ints, bools, array_types or {}, matrices)
    low.block(fn.body, 1)
    header = ["    int failed = 0;"]
    for name in low.assigned:
        kind = low.type_of(name)
        zero = "0.0" if kind == "double" else "0"
        header.append(f"    {_C_TYPES[kind]} v_{name} = {zero};")
    params = [f"int64_t v_{name}" for name in low.scalars]
    params += [f"int64_t len{axis}_{low.arrays[position]}"
               for position, axis in low.lengths]
    params += [f"{_ARRAY_C_TYPES[low.array_types[name]]} *a_{name}"
               for name in low.views if name in low.arrays]
    params += [f"bitgen_t *g_{low.arrays[position]}_{index}"
               for position, index in low.sources]
    c_source = "\n".join(
        [_PRELUDE, f"int64_t kernel({', '.join(params)})", "{"]
        + header + low.lines + ["}", ""])
    return c_source, (len(low.scalars),
                      tuple(map(low.array_types.get, low.arrays)),
                      tuple(low.lengths), tuple(low.sources))


_DTYPES = {"double": np.dtype(np.float64), "int": np.dtype(np.int64),
           "bool": np.dtype(np.bool_)}


def bind(library: ctypes.CDLL, signature: Tuple) -> Callable:
    """A Python callable over a library built from :func:`lower`'s source.

    ``signature`` is what :func:`lower` returned with that source.  The
    callable takes the function's arguments and raises ``ValueError``
    for an array that is not C-contiguous, writable, non-empty and of its
    declared type.  It passes the scalars, the shape entries the C code
    asks for and the arrays' data pointers; sizing the arrays is the
    caller's job.  Each element of a stream argument is a noise source
    whose ``bit_generator()`` returns the NumPy bit generator at its next
    value; the call passes each drawn one and holds its ``lock``
    throughout, since :mod:`ctypes` releases the GIL.
    """
    n_scalars, array_types, lengths, sources = signature
    data = [position for position, kind in enumerate(array_types)
            if kind != "stream"]
    dtypes = [_DTYPES[array_types[position]] for position in data]
    fn = library.kernel
    fn.argtypes = [ctypes.c_int64] * (n_scalars + len(lengths)) \
        + [ctypes.c_void_p] * (len(data) + len(sources))
    fn.restype = ctypes.c_int64
    address, from_buffer = ctypes.addressof, ctypes.c_char.from_buffer

    def kernel(*values):
        arrays = values[n_scalars:]
        try:
            if [arrays[position].dtype for position in data] != dtypes:
                raise TypeError
            # a buffer that is not C-contiguous or is read-only raises
            # TypeError, an empty one ValueError
            pointers = [address(from_buffer(arrays[position]))
                        for position in data]
        except (TypeError, ValueError, AttributeError):
            raise ValueError("kernel arrays must be C-contiguous, writable, "
                             "non-empty and of the declared dtypes") from None
        generators = [arrays[position][index].bit_generator()
                      for position, index in sources]
        held = []
        try:
            for generator in generators:
                generator.lock.acquire()
                held.append(generator.lock)
            return fn(*values[:n_scalars],
                      *[arrays[position].shape[axis]
                        for position, axis in lengths],
                      *pointers,
                      *[g.ctypes.bit_generator for g in generators])
        finally:
            for lock in held:
                lock.release()

    kernel.library = library
    return kernel


def find_compiler() -> Optional[Tuple[str, ...]]:
    """The C compiler command: ``$CC``, else Python's build ``CC``.

    The first word is resolved on ``PATH``; ``None`` when it is not
    found (the compiled engine then runs its Python kernels).
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    words = shlex.split(cc)
    path = shutil.which(words[0]) if words else None
    if path is None:
        return None
    return (os.path.realpath(path),) + tuple(words[1:])


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro/kernels``.

    ``XDG_CACHE_HOME`` defaults to ``~/.cache``.  The directory is shared
    by every checkout on the host and is never a temporary directory.
    """
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "kernels"


_fallback_dir: Optional[str] = None


def _writable_cache() -> Path:
    """The cache directory, or a per-process one if it cannot be written."""
    global _fallback_dir
    path = cache_dir()
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / f".probe-{os.getpid()}-{uuid.uuid4().hex}"
        probe.touch()
        probe.unlink()
        return path
    except OSError as exc:
        if _fallback_dir is None:
            _fallback_dir = tempfile.mkdtemp(prefix="repro-kernels-")
            atexit.register(shutil.rmtree, _fallback_dir, ignore_errors=True)
            warnings.warn(
                f"kernel cache {path} is not writable ({exc}); building "
                f"into {_fallback_dir} for this process only",
                RuntimeWarning, stacklevel=4)
        return Path(_fallback_dir)


def _libc_version() -> str:
    """The GNU C library version, or ``""`` on a host without one.

    ``os.confstr`` does not exist on Windows and raises ``ValueError``
    for the name where the C library does not define it (macOS, musl).
    """
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return ""


@functools.lru_cache(maxsize=None)
def _file_digest(path: str) -> str:
    """SHA-256 of a library the kernels link, read once per process."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise BuildError(f"cannot read {path}: {exc}") from exc


def cache_key(c_source: str, compiler: Sequence[str]) -> str:
    """SHA-256 over the source, the flags, the compiler, the C library,
    NumPy's random library and the NumPy version.

    Raises :class:`BuildError` when NumPy's random library cannot be read.
    """
    stat = os.stat(compiler[0])
    digest = hashlib.sha256()
    for part in (c_source, " ".join(FLAGS + LIBS), " ".join(compiler),
                 f"{stat.st_size}:{stat.st_mtime_ns}", _libc_version(),
                 _file_digest(str(NPYRANDOM)), np.__version__):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _load_verified(library: Path, record: Path) -> Optional[ctypes.CDLL]:
    """Load ``library`` if its bytes match the recorded SHA-256."""
    try:
        expected = record.read_text().strip()
        data = library.read_bytes()
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != expected:
        return None
    try:
        return ctypes.CDLL(str(library))
    except OSError:
        return None


def load_or_build(c_source: str, compiler: Sequence[str],
                  bind_library: Callable[[ctypes.CDLL], Callable],
                  check: Callable[[Callable], bool]) -> Callable:
    """A callable kernel for ``c_source``, from the cache or a fresh build.

    A cached library whose bytes hash to its recorded SHA-256 is loaded
    as is.  Anything else is compiled under a unique temporary name in
    the cache directory and passed to ``check`` (the self-check).  When
    ``check`` returns ``True`` the library is moved into place with
    ``os.replace`` and its SHA-256 recorded after it, so concurrent
    builders never see a partial file.  A compiler failure or a
    ``False`` check raises :class:`BuildError`, as may ``check`` itself
    when it cannot run.
    """
    directory = _writable_cache()
    key = cache_key(c_source, compiler)
    library = directory / f"{key}.so"
    record = directory / f"{key}.sha256"
    loaded = _load_verified(library, record)
    if loaded is not None:
        return bind_library(loaded)

    stem = directory / f"{key}.{os.getpid()}-{uuid.uuid4().hex}"
    c_path, so_path, sum_path = (Path(f"{stem}{suffix}")
                                 for suffix in (".c", ".so", ".sha256"))
    try:
        c_path.write_text(c_source)
        done = subprocess.run(
            [*compiler, *FLAGS, "-I", NUMPY_INCLUDE, "-o", str(so_path),
             str(c_path), str(NPYRANDOM), *LIBS],
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if done.returncode != 0:
            raise BuildError(f"{compiler[0]} exited with {done.returncode}: "
                             f"{done.stderr.strip()[-2000:]}")
        kernel = bind_library(ctypes.CDLL(str(so_path)))
        if not check(kernel):
            raise BuildError("the built kernel differs from the Python "
                             "kernel on the self-check input")
        sum_path.write_text(hashlib.sha256(so_path.read_bytes()).hexdigest())
        os.replace(so_path, library)
        os.replace(sum_path, record)
        return kernel
    except OSError as exc:
        raise BuildError(f"cannot build in {directory}: {exc}") from exc
    finally:
        for path in (c_path, so_path, sum_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
