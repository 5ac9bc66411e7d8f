"""Lightweight C++ source model for maritime-lint.

This is not a C++ parser; it is a deliberately small lexical model tuned to
this repository's style (clang-format, one declaration per statement) and to
the four maritime-lint rules.  It blanks comments/literals/preprocessor
lines, matches braces, and extracts just enough structure — classes with
their data members, using-aliases, function declarations/definitions with
leading annotation macros — for the rules to reason about.  Fixtures under
tests/lint/ pin the verdicts.

Annotation macros (src/common/annotations.h) are recognized by name:
  MARITIME_ARENA_SCOPED, MARITIME_ARENA_ESCAPE_OK,
  MARITIME_COMMIT_BOUNDARY, MARITIME_OUTPUT_PATH
Suppression directives are read from comments:
  // maritime-lint: allow(<rule>[, <rule>...]): <reason>
  // maritime-lint: allow-next-line(<rule>...): <reason>
  // maritime-lint: allow-file(<rule>...)
Expected-diagnostic directives (test fixtures only):
  // lint-expect: <rule>[, <rule>...]
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field

ANNOTATION_MACROS = (
    "MARITIME_ARENA_SCOPED",
    "MARITIME_ARENA_ESCAPE_OK",
    "MARITIME_COMMIT_BOUNDARY",
    "MARITIME_OUTPUT_PATH",
)

# Suffix macros that decorate member declarations and must be stripped before
# the "last identifier is the member name" heuristic runs.
_SUFFIX_MACRO_RE = re.compile(
    r"\b(MARITIME_GUARDED_BY|MARITIME_PT_GUARDED_BY|MARITIME_ACQUIRED_BEFORE|"
    r"MARITIME_ACQUIRED_AFTER|MARITIME_REQUIRES|MARITIME_ACQUIRE|"
    r"MARITIME_RELEASE|MARITIME_EXCLUDES|MARITIME_RETURN_CAPABILITY|"
    r"MARITIME_NO_THREAD_SAFETY_ANALYSIS|MARITIME_SCOPED_CAPABILITY)"
    r"\s*(\([^()]*\))?")

_ATTR_RE = re.compile(r"\[\[[^\[\]]*\]\]")
_ALLOW_RE = re.compile(
    r"maritime-lint:\s*(allow|allow-next-line|allow-file)\s*\(([^)]*)\)")
_EXPECT_RE = re.compile(r"lint-expect:\s*([\w, -]+)")
_ID_RE = re.compile(r"[A-Za-z_]\w*")

_STMT_KEYWORDS = frozenset([
    "if", "else", "for", "while", "do", "switch", "case", "default", "return",
    "break", "continue", "goto", "throw", "try", "catch", "delete", "new",
    "co_return", "co_await", "co_yield", "static_assert", "using", "typedef",
    "template", "public", "private", "protected", "friend", "operator",
])

_DECL_SPECIFIERS = frozenset([
    "static", "inline", "virtual", "explicit", "constexpr", "consteval",
    "constinit", "extern", "mutable", "friend", "typename", "register",
    "thread_local",
])


@dataclass
class Member:
    name: str
    type: str
    line: int
    annotations: set[str] = field(default_factory=set)
    guards: set[str] = field(default_factory=set)  # mutexes guarding it


@dataclass
class ClassInfo:
    name: str
    line: int
    body: tuple[int, int]  # offsets into code, exclusive of braces
    annotations: set[str] = field(default_factory=set)
    members: list[Member] = field(default_factory=list)
    parents: list["ClassInfo"] = field(default_factory=list)  # enclosing


@dataclass
class Alias:
    name: str
    rhs: str
    line: int
    annotations: set[str] = field(default_factory=set)


@dataclass
class Function:
    name: str  # unqualified ("Recognize") or qualified ("Engine::Recognize")
    line: int
    ret_type: str
    annotations: set[str] = field(default_factory=set)
    body: tuple[int, int] | None = None  # None for pure declarations
    owner: ClassInfo | None = None  # enclosing class for in-class decls


class SourceFile:
    """Parsed model of one C++ source file."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.code = _blank(text)
        self._line_starts = _line_starts(self.code)
        self.allows: dict[int, set[str]] = {}
        self.file_allows: set[str] = set()
        self.expects: list[tuple[int, str]] = []
        self._scan_directives(text)
        self.classes: list[ClassInfo] = []
        self.aliases: list[Alias] = []
        self.functions: list[Function] = []
        _Parser(self).parse()

    # -- positions ----------------------------------------------------------
    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self._line_starts, offset)

    # -- suppression --------------------------------------------------------
    def allowed(self, line: int, rule: str) -> bool:
        return rule in self.file_allows or rule in self.allows.get(line, ())

    def _scan_directives(self, text: str) -> None:
        for i, raw in enumerate(text.splitlines(), start=1):
            comment = raw.partition("//")[2]
            if not comment:
                continue
            m = _ALLOW_RE.search(comment)
            if m:
                rules = {r.strip() for r in m.group(2).split(",") if r.strip()}
                kind = m.group(1)
                if kind == "allow-file":
                    self.file_allows |= rules
                else:
                    at = i + 1 if kind == "allow-next-line" else i
                    self.allows.setdefault(at, set()).update(rules)
            m = _EXPECT_RE.search(comment)
            if m:
                for rule in m.group(1).split(","):
                    if rule.strip():
                        self.expects.append((i, rule.strip()))


def _line_starts(code: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(code):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _blank(text: str) -> str:
    """Blanks comments, string/char literals, and preprocessor lines.

    Output has identical length and line structure, so offsets and line
    numbers computed on it map directly back to the original text.
    """
    out = list(text)
    n = len(text)
    i = 0
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            # Preprocessor directive, including backslash continuations.
            while i < n:
                if text[i] == "\n":
                    if i > 0 and text[i - 1] == "\\":
                        out[i - 1] = " "
                        i += 1
                        continue
                    break
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            at_line_start = True
            i += 1
            continue
        if c not in " \t\n":
            at_line_start = False
        if c == "\n":
            at_line_start = True
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
            continue
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                end = text.find(close, i + m.end())
                end = n if end < 0 else end + len(close)
                for j in range(i, end):
                    if text[j] != "\n":
                        out[j] = " " if j > i else "R"
                i = end
                continue
        if c == '"' or c == "'":
            quote = c
            out[i] = quote
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = quote
                i += 1
            continue
        i += 1
    return "".join(out)


def match_brace(code: str, open_at: int) -> int:
    """Offset of the '}' matching the '{' at open_at (or len(code))."""
    depth = 0
    for i in range(open_at, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def split_top_level(s: str, sep: str) -> list[str]:
    """Splits on sep occurring outside (), [], {} and <> nesting."""
    parts, depth, angle, last = [], 0, 0, 0
    i = 0
    while i < len(s):
        c = s[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0:
            if c == "<" and not s.startswith("<<", i) and (i == 0 or
                                                           s[i - 1] != "<"):
                angle += 1
            elif c == ">" and angle > 0 and not s.startswith(">>=", i - 1):
                angle -= 1
            elif c == sep and angle == 0:
                if sep == ":" and (s.startswith("::", i) or
                                   (i > 0 and s[i - 1] == ":")):
                    i += 1
                    continue
                parts.append(s[last:i])
                last = i + 1
        i += 1
    parts.append(s[last:])
    return parts


def _tokens(s: str) -> list[str]:
    return _ID_RE.findall(s)


def strip_annotations(s: str) -> tuple[str, set[str]]:
    """Removes leading/suffix annotation + thread-safety macros and [[attrs]];
    returns (cleaned text, annotation macro names found)."""
    found = {m for m in ANNOTATION_MACROS if re.search(r"\b%s\b" % m, s)}
    for m in ANNOTATION_MACROS:
        s = re.sub(r"\b%s\b" % m, " ", s)
    s = _SUFFIX_MACRO_RE.sub(" ", s)
    s = _ATTR_RE.sub(" ", s)
    return s, found


class _Parser:
    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.code = sf.code

    def parse(self) -> None:
        self._scope(0, len(self.code), None)

    def _scope(self, start: int, end: int, owner: ClassInfo | None) -> None:
        code = self.code
        i = start
        stmt_start = start
        while i < end:
            c = code[i]
            if c == ";":
                self._statement(code[stmt_start:i], stmt_start, owner)
                stmt_start = i + 1
            elif c == "{":
                head = code[stmt_start:i]
                close = match_brace(code, i)
                kind = self._classify_head(head)
                if kind == "class":
                    cls = self._class_from_head(head, stmt_start, i, close,
                                                owner)
                    if cls is not None:
                        self._scope(i + 1, close, cls)
                    i = close
                    stmt_start = close + 1
                elif kind == "namespace" or kind == "extern":
                    self._scope(i + 1, close, owner)
                    i = close
                    stmt_start = close + 1
                elif kind == "function":
                    fn = self._function_from_head(head, stmt_start, owner,
                                                  body=(i + 1, close))
                    if fn is not None:
                        self.sf.functions.append(fn)
                    i = close
                    stmt_start = close + 1
                elif kind == "enum":
                    i = close
                    stmt_start = close + 1
                else:
                    # Brace initializer / lambda body: part of the
                    # surrounding statement; skip to the matching brace and
                    # let the terminating ';' close it. A block NOT followed
                    # by ';' / ',' / ')' was some definition this model does
                    # not classify (e.g. an operator overload) — close the
                    # statement there so later code is not glued onto it.
                    i = close
                    nxt = re.match(r"\s*([^\s])", code[close + 1:end])
                    if nxt and nxt.group(1) not in ";,)":
                        stmt_start = close + 1
            i += 1
        tail = code[stmt_start:end]
        if tail.strip():
            self._statement(tail, stmt_start, owner)

    # -- head classification -------------------------------------------------
    def _classify_head(self, head: str) -> str:
        # Strip template<...> prefixes and attributes for classification.
        h = _ATTR_RE.sub(" ", head).strip()
        h = re.sub(r"^\s*(template\s*<)", "", h)
        toks = _tokens(h)
        if not toks:
            return "other"
        tokset = set(toks)
        if "namespace" in toks[:2]:
            return "namespace"
        if toks[0] == "extern":
            return "extern"
        if "enum" in toks[:3]:
            return "enum"
        # `class`/`struct` introduce a type unless part of a template head
        # that ends in a function ("template <class T> void f(...)").
        head_np = split_top_level(head, "(")[0]
        if re.search(r"\b(class|struct|union)\b", head_np) and \
           not self._find_callee(head):
            return "class"
        if toks[0] in ("if", "for", "while", "switch", "catch", "do", "else",
                       "try", "return"):
            return "other"
        if self._find_callee(head) is not None:
            return "function"
        return "other"

    def _find_callee(self, head: str) -> tuple[str, int] | None:
        """First identifier (possibly ::-qualified) directly followed by a
        top-level '(' — the function name of a signature-shaped head."""
        depth = angle = 0
        i = 0
        n = len(head)
        while i < n:
            c = head[i]
            if c in "([{":
                if c == "(" and depth == 0 and angle == 0:
                    om = re.search(
                        r"(\boperator\s*(?:==|!=|<=|>=|<<|>>|\+\+|--|&&|\|\||"
                        r"\[\]|\(\)|[-+*/%&|^~!=<>])?)\s*$", head[:i])
                    if om and om.group(1) != "operator":
                        return re.sub(r"\s", "", om.group(1)), om.start(1)
                    m = re.search(r"([A-Za-z_~][\w]*)\s*$", head[:i])
                    if m:
                        name = m.group(1)
                        # Extend with ::-qualification to the left.
                        q = head[:m.start(1)]
                        qm = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)+)$", q)
                        if qm:
                            name = re.sub(r"\s", "",
                                          qm.group(1)) + name
                            return name, qm.start(1)
                        if name in _STMT_KEYWORDS:
                            return None
                        return name, m.start(1)
                    return None
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif depth == 0:
                if c == "<" and i > 0 and _ID_RE.match(head[i - 1]):
                    angle += 1
                elif c == ">" and angle > 0:
                    angle -= 1
            i += 1
        return None

    # -- entity constructors -------------------------------------------------
    def _class_from_head(self, head: str, head_start: int, brace: int,
                         close: int, owner: ClassInfo | None):
        h = re.sub(r"\btemplate\s*<[^{]*?>\s*(?=\b(class|struct)\b)", "", head)
        h, anns = strip_annotations(h)
        m = re.search(
            r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final)?\s*(?::|$)",
            split_top_level(h, "(")[0].rstrip())
        if not m:
            return None
        cls = ClassInfo(
            name=m.group(1),
            line=self.sf.line_of(head_start + len(head) - len(head.lstrip())),
            body=(brace + 1, close),
            annotations=anns,
            parents=([owner] + owner.parents) if owner else [],
        )
        self.sf.classes.append(cls)
        return cls

    def _function_from_head(self, head: str, head_start: int,
                            owner: ClassInfo | None, body):
        found = self._find_callee(head)
        if found is None:
            return None
        name, name_at = found
        prefix = head[:name_at]
        # Constructor initializer lists never reach here: _find_callee takes
        # the FIRST top-level call-shaped token, which is the ctor itself.
        prefix = re.sub(r"\btemplate\s*<.*?>", " ", prefix, flags=re.S)
        prefix, anns = strip_annotations(prefix)
        # Drop leading specifiers from the textual return type.
        rt = prefix
        for spec in _DECL_SPECIFIERS:
            rt = re.sub(r"\b%s\b" % spec, " ", rt)
        rt = rt.strip()
        line = self.sf.line_of(head_start + len(head) - len(head.lstrip()))
        return Function(name=name, line=line, ret_type=rt, annotations=anns,
                        body=body, owner=owner)

    def _statement(self, stmt: str, stmt_start: int, owner: ClassInfo | None):
        s = stmt
        # Strip access-specifier labels glued to the front of a statement,
        # preserving offsets so line numbers keep pointing at the entity.
        s = re.sub(r"^\s*(?:public|private|protected)\s*:",
                   lambda m: " " * len(m.group(0)), s)
        if not s.strip():
            return
        lead_ws = len(s) - len(s.lstrip())
        line = self.sf.line_of(stmt_start + lead_ws)
        st = s.strip()
        m = re.match(r"^using\s+([A-Za-z_]\w*)\s*((?:MARITIME_\w+\s*)*)=\s*(.+)$",
                     st, flags=re.S)
        if m:
            _, anns = strip_annotations(m.group(2))
            self.sf.aliases.append(
                Alias(name=m.group(1), rhs=m.group(3).strip(), line=line,
                      annotations=anns))
            return
        if re.match(r"^(using|typedef|friend|template|static_assert|"
                    r"namespace|enum)\b", st):
            return
        callee = self._find_callee(s)
        if callee is not None:
            # Function declaration (no body) — but only when the '(' belongs
            # to a signature, not to a member initializer `int x(5);` or a
            # macro-decorated member. Heuristic: a declaration has at least
            # one type token before the name.
            name, name_at = callee
            before = s[:name_at]
            before_clean, anns = strip_annotations(before)
            type_toks = [t for t in _tokens(before_clean)
                         if t not in _DECL_SPECIFIERS]
            if type_toks and "=" not in before:
                rt = before_clean
                for spec in _DECL_SPECIFIERS:
                    rt = re.sub(r"\b%s\b" % spec, " ", rt)
                self.sf.functions.append(
                    Function(name=name, line=line, ret_type=rt.strip(),
                             annotations=anns, body=None, owner=owner))
                return
        if owner is not None:
            self._member(s, line, owner)

    def _member(self, s: str, line: int, owner: ClassInfo):
        guards = set()
        for m in re.finditer(
                r"\bMARITIME_(?:PT_)?GUARDED_BY\s*\(([^()]*)\)", s):
            guards.add(m.group(1).strip())
        cleaned, anns = strip_annotations(s)
        # Cut off any initializer (both `= init` and `{init}` forms).
        decl = split_top_level(cleaned, "=")[0]
        decl = re.sub(r"\{.*\}\s*$", "", decl.strip(), flags=re.S)
        decl = decl.strip()
        if not decl:
            return
        # Brace-initialized members lost their braces to scope parsing; the
        # name is the last identifier of the declarator.
        m = re.search(r"([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)*$", decl)
        if not m:
            return
        name = m.group(1)
        type_text = decl[:m.start(1)].strip()
        if not type_text or name in _STMT_KEYWORDS:
            return
        tt = [t for t in _tokens(type_text) if t not in _DECL_SPECIFIERS]
        if not tt:
            return
        owner.members.append(
            Member(name=name, type=type_text, line=line, annotations=anns,
                   guards=guards))
