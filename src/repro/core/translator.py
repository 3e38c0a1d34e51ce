"""The automatic source-to-source translator (paper §III-C).

The translator converts an existing no-memcpy CUDA program into a
direct-store program, exactly following the paper's recipe:

1. scan every kernel invocation matching
   ``kernel_name<<<Dg, Db[, Ns[, S]]>>>(x1, x2, ..., xn)`` and capture
   the variable names passed to kernels;
2. scan the sources for the memory declarations of those variables —
   ``malloc`` and ``cudaMalloc`` calls — and determine each variable's
   allocation size (evaluating ``sizeof`` and ``#define`` constants);
3. rewrite each declaration into an ``mmap`` at a fixed high-order
   virtual address (``MAP_FIXED``), bumping the next start address by
   the (page-aligned) size so no two variables overlap;
4. emit the modified sources, ready to compile "in the standard way".

The translator operates on source *text* (it does not need a C
compiler); it understands the declaration idioms the paper's benchmark
suites use.  Its output — the per-variable window addresses — is also
what drives the simulator's direct-store allocation, so the translator
can be exercised end to end.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.bitops import align_up
from repro.vm.mmap import DIRECT_STORE_WINDOW_BASE
from repro.vm.pagetable import PAGE_SIZE


class TranslationError(ValueError):
    """The translator could not understand or rewrite a construct."""


#: sizeof() values for the C types the benchmark suites use
_SIZEOF = {
    "char": 1, "unsigned char": 1, "bool": 1,
    "short": 2, "unsigned short": 2,
    "int": 4, "unsigned int": 4, "unsigned": 4, "float": 4,
    "long": 8, "unsigned long": 8, "long long": 8, "double": 8,
    "size_t": 8, "void *": 8, "void*": 8,
    "float2": 8, "int2": 8, "float4": 16, "int4": 16,
}

#: kernel<<<...>>>(args)
_KERNEL_CALL_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*)\s*<<<(?P<launch>[^>]*)>>>\s*"
    r"\((?P<args>[^;]*?)\)\s*;",
    re.DOTALL)

#: var = (cast) malloc(size);   |   var = malloc(size);
_MALLOC_RE = re.compile(
    r"(?P<lhs>[A-Za-z_]\w*)\s*=\s*(?P<cast>\([^)]*\)\s*)?"
    r"malloc\s*\((?P<size>[^;]*)\)\s*;")

#: cudaMalloc(&var, size);  |  cudaMalloc((void**)&var, size);
_CUDAMALLOC_RE = re.compile(
    r"cudaMalloc\s*\(\s*(?:\([^)]*\)\s*)?&\s*(?P<lhs>[A-Za-z_]\w*)\s*,"
    r"\s*(?P<size>[^;]*)\)\s*;")

#: #define NAME value
_DEFINE_RE = re.compile(
    r"^\s*#\s*define\s+(?P<name>[A-Za-z_]\w*)\s+(?P<value>[^\s/]+)",
    re.MULTILINE)

#: const int N = 123;   |   int N = 123;  (constant initialisers only)
_CONST_RE = re.compile(
    r"^\s*(?:static\s+)?(?:const\s+)?(?:unsigned\s+)?(?:int|long|size_t)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<value>[0-9][0-9a-fA-Fx]*)\s*;",
    re.MULTILINE)


@dataclass
class VariableAllocation:
    """One kernel-argument variable's rewritten allocation."""

    name: str
    size_bytes: int
    window_address: int
    source_file: str
    original_statement: str
    rewritten_statement: str
    allocator: str  # "malloc" or "cudaMalloc"


@dataclass
class TranslationReport:
    """Everything the translator found and changed."""

    kernel_calls: List[Tuple[str, Tuple[str, ...]]] = field(
        default_factory=list)
    kernel_arguments: List[str] = field(default_factory=list)
    allocations: List[VariableAllocation] = field(default_factory=list)
    translated_sources: Dict[str, str] = field(default_factory=dict)
    #: kernel arguments for which no malloc/cudaMalloc was found
    unresolved: List[str] = field(default_factory=list)


class SourceTranslator:
    """Translates CUDA-C-like sources to direct-store allocation."""

    def __init__(self,
                 window_base: int = DIRECT_STORE_WINDOW_BASE) -> None:
        self.window_base = window_base

    # ------------------------------------------------------------------

    def translate(self, sources: Dict[str, str]) -> TranslationReport:
        """Translate a program given as ``{filename: source_text}``."""
        report = TranslationReport()
        constants = self._collect_constants(sources)

        # pass 1: every kernel invocation, in file order (§III-C: "all
        # variable inferences in CUDA kernel invocations are scanned")
        seen_args: List[str] = []
        for filename in sorted(sources):
            for match in _KERNEL_CALL_RE.finditer(sources[filename]):
                args = tuple(
                    arg for arg in
                    (a.strip().lstrip("&") for a in
                     match.group("args").split(","))
                    if re.fullmatch(r"[A-Za-z_]\w*", arg))
                report.kernel_calls.append((match.group("name"), args))
                for arg in args:
                    if arg not in seen_args:
                        seen_args.append(arg)
        report.kernel_arguments = seen_args

        # pass 2+3: find and rewrite the declarations
        next_address = self.window_base
        resolved = set()
        translated = dict(sources)
        for filename in sorted(sources):
            text = translated[filename]
            for pattern, allocator in ((_MALLOC_RE, "malloc"),
                                       (_CUDAMALLOC_RE, "cudaMalloc")):
                text = self._rewrite_all(
                    text, pattern, allocator, filename, seen_args,
                    constants, resolved, report,
                    lambda: next_address)
                # the rewrite helper advanced addresses through `report`;
                # recompute the cursor from what it emitted
                if report.allocations:
                    last = report.allocations[-1]
                    next_address = max(
                        next_address,
                        last.window_address
                        + align_up(last.size_bytes, PAGE_SIZE))
            translated[filename] = text
        report.translated_sources = translated
        report.unresolved = [arg for arg in seen_args
                             if arg not in resolved]
        return report

    def translate_source(self, source: str,
                         filename: str = "main.cu") -> TranslationReport:
        """Convenience wrapper for single-file programs."""
        return self.translate({filename: source})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _rewrite_all(self, text: str, pattern: re.Pattern, allocator: str,
                     filename: str, kernel_args: List[str],
                     constants: Dict[str, int], resolved: set,
                     report: TranslationReport, cursor) -> str:
        """Rewrite every match of *pattern* whose LHS is a kernel arg."""
        out: List[str] = []
        last_end = 0
        next_address = cursor()
        for match in pattern.finditer(text):
            name = match.group("lhs")
            if name not in kernel_args or name in resolved:
                continue
            size_expr = match.group("size").strip()
            size_bytes = self._eval_size(size_expr, constants)
            statement = match.group(0)
            rewritten = (
                f"{name} = mmap((void *){next_address:#x}, {size_expr}, "
                f"PROT_READ | PROT_WRITE, "
                f"MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);")
            report.allocations.append(VariableAllocation(
                name=name, size_bytes=size_bytes,
                window_address=next_address, source_file=filename,
                original_statement=statement,
                rewritten_statement=rewritten, allocator=allocator))
            resolved.add(name)
            out.append(text[last_end:match.start()])
            out.append(rewritten)
            last_end = match.end()
            next_address += align_up(size_bytes, PAGE_SIZE)
        out.append(text[last_end:])
        return "".join(out)

    def _collect_constants(self,
                           sources: Dict[str, str]) -> Dict[str, int]:
        """Gather #define and const-int values usable in size expressions."""
        constants: Dict[str, int] = {}
        for text in sources.values():
            for match in _DEFINE_RE.finditer(text):
                value = self._try_int(match.group("value"))
                if value is not None:
                    constants[match.group("name")] = value
            for match in _CONST_RE.finditer(text):
                value = self._try_int(match.group("value"))
                if value is not None:
                    constants[match.group("name")] = value
        return constants

    @staticmethod
    def _try_int(token: str) -> Optional[int]:
        token = token.strip().rstrip("uUlL")
        try:
            return int(token, 0)
        except ValueError:
            return None

    def _eval_size(self, expression: str,
                   constants: Dict[str, int]) -> int:
        """Evaluate a C allocation-size expression to bytes.

        Supports integer literals, ``sizeof(type)``, named constants,
        ``+ - * / ( )``, matching what the benchmark suites write.
        """
        text = expression
        # sizeof(type) -> literal
        def _sizeof(match: re.Match) -> str:
            type_name = " ".join(match.group(1).split()).rstrip(" *")
            if match.group(1).strip().endswith("*"):
                return "8"
            if type_name in _SIZEOF:
                return str(_SIZEOF[type_name])
            raise TranslationError(
                f"unknown type in sizeof: {match.group(1)!r}")

        text = re.sub(r"sizeof\s*\(\s*([^)]+?)\s*\)", _sizeof, text)
        # named constants -> literals
        def _name(match: re.Match) -> str:
            name = match.group(0)
            if name in constants:
                return str(constants[name])
            raise TranslationError(
                f"cannot determine size: unknown symbol {name!r} "
                f"in {expression!r}")

        text = re.sub(r"[A-Za-z_]\w*", _name, text)
        try:
            node = ast.parse(text, mode="eval")
        except SyntaxError as error:
            raise TranslationError(
                f"unparseable size expression {expression!r}") from error
        value = self._eval_node(node.body, expression)
        if value <= 0:
            raise TranslationError(
                f"non-positive size {value} from {expression!r}")
        return int(value)

    def _eval_node(self, node: ast.AST, origin: str) -> int:
        """Arithmetic-only AST evaluation (no names, no calls)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div,
                          ast.FloorDiv, ast.Mod)):
            left = self._eval_node(node.left, origin)
            right = self._eval_node(node.right, origin)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Mod):
                return left % right
            return left // right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._eval_node(node.operand, origin)
        raise TranslationError(
            f"unsupported construct in size expression {origin!r}")
