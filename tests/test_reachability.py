"""Reachability guard: no code in ``src/repro`` that only tests reach.

Three levels are checked:

* Every public (no leading underscore) top-level function or class in
  ``src/repro/**/*.py`` must be used by the program itself.  A class is
  used where some file in ``src/``, ``examples/`` or ``benchmarks/``
  mentions it as an ``ast.Name`` or as the attribute of an
  ``ast.Attribute``.  A function is used only through a name bound to it,
  so ``np.maximum`` or a local ``where`` cannot keep ``repro.nn``'s alive:
  its own name inside its defining module, ``g`` after ``from <module or
  a package re-exporting it> import f as g``, or ``alias.f`` where
  ``alias`` is bound to such a module or package.  A function named by a
  string that is a whole dotted name (a registry key, a ``getattr``
  name), not a docstring, counts as used too.
* Every non-dunder method of every class in ``src/repro`` must be used
  the same way, or appear as a token of a string constant that is not a
  docstring (so ``"Class.method"`` trace sites and ``getattr`` names
  count).
* Every operator dunder (``__add__``, ``__contains__``, ``__getitem__``,
  ``__len__``, ``__iter__``, ``__call__``, ...) must be applied by the
  program to an operand that may hold its class: a name or attribute
  some assignment binds to the class, an annotation names, ``self``, a
  base class, or a typing protocol (``Sequence``, ``Mapping``, ...) whose
  dunders the class has.
* Every defaulted parameter of every function and method in
  ``src/repro``, and every field of the dataclasses in ``FIELDS``, must be
  passed by keyword or position from some call in the program outside its
  own definition.  Calls match by name: ``f(...)`` or ``obj.f(...)`` for
  a function or method, the class (or a subclass that inherits its
  ``__init__``), ``cls(...)`` inside it or ``super().__init__(...)`` in a
  subclass for ``__init__``, and also ``dataclasses.replace`` naming a
  field as a keyword.  A ``**mapping`` argument sets every parameter and
  ``*args`` every positional one from its place on.  A top-level function the
  program passes around as a value (a registry entry, a callback) counts
  as called with everything, and dunder methods other than ``__init__``
  are called by the language, not by name, so neither is checked.  A
  value only tests set becomes a module constant that a test can
  monkeypatch.

Mentions inside import statements, inside ``__all__`` and inside the
definition itself do not count, so re-exports and recursion cannot keep a
name alive.  Tests do not count either: code that only a test reaches is
deleted, unless ``KEEP`` lists it with the reason a test needs it.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names only tests use, kept because they are references or seams, and
#: callbacks the standard library calls by name.  Methods are written
#: ``Class.method``, parameters ``function.param`` or
#: ``Class.method.param``.
KEEP = {
    "gradient_check": "finite-difference reference for autograd tests",
    "polynomial_h_value": "truncated-series reference for h(W) tests",
    "is_dag": "acyclicity check the tests of every DAG output assert with",
    "topological_order": "exposes the Kahn order is_dag shares, which the "
                         "networkx oracle test checks node for node",
    "parents": "direct-cause query the graph tests check",
    "ExactIndex": "brute-force oracle the IVF recall tests compare against",
    "anomaly_mode_enabled": "lets tests see detect_anomaly() restore the mode",
    "lint_paths": "in-process gradlint entry point for analysis tests",
    "quick_settings": "smallest experiment settings for harness tests",
    "InProcessClient": "socket-free client the serving tests drive",
    "_Handler.do_GET": "http.server calls it by name for each GET; the HTTP "
                       "tests drive it",
    "_Handler.do_POST": "http.server calls it by name for each POST; the "
                        "HTTP tests drive it",
    "_Handler.log_message": "http.server calls it per request; the override "
                            "keeps access logs off stderr",
    "_Commands.__contains__": "argparse tests each subcommand against its "
                              "choices with `in`",
    "LockProxy.wrapped": "read seam the sanitizer tests check the proxied "
                         "lock (its ownership, its restore) through",
    "PaddedBatch.flat_history_sets": "per-row history sets the batching "
                                     "and negative-sampling tests check "
                                     "against",
    "BehaviorSimulator.preferred_effects": "ground-truth affinity the "
                                           "simulator tests check for "
                                           "determinism and cluster "
                                           "membership",
    "SyntheticDataset.item_causal_matrix": "item-level truth the causal "
                                           "discovery tests score against",
    "ThreadSanitizer.wrap_lock": "wraps a test-built lock so the sanitizer "
                                 "tests can seed findings on it",
    "LockProxy.locked": "completes the Lock protocol for the code the "
                        "sanitizer tests run with proxied locks",
    "MetricsRegistry.counter_value": "read seam the serving and online "
                                     "tests assert counters through",
    "MetricsRegistry.gauge_value": "read seam the online tests assert "
                                   "gauges through",
    "MetricsRegistry.percentiles": "read seam the serving tests assert "
                                   "latency summaries through",
    "MetricsRegistry.observation_count": "read seam the serving tests "
                                         "assert observation counts through",
    "QuantizedTable.nbytes": "the quantization tests assert the int8 table "
                             "is smaller through it",
    "LockProxy.wait_for.timeout": "keeps threading.Condition's signature, "
                                  "so code run with proxied locks calls it "
                                  "unchanged",
    "LockProxy.notify.n": "keeps threading.Condition's signature, so code "
                          "run with proxied locks calls it unchanged",
    "polynomial_h_value.order": "series length of the h(W) reference; the "
                                "convergence test raises it",
    "binarize.threshold": "cut-off the graph tests binarize weighted "
                          "matrices at; the program keeps every nonzero "
                          "weight",
    "MetricsRegistry.counter_value.labels": "read seam the metrics tests "
                                            "assert labelled counters "
                                            "through",
}


def _docstrings(tree) -> set:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


class _Uses(ast.NodeVisitor):
    """Count ``Name`` ids and ``Attribute`` attrs outside imports/__all__.

    Given the ``docstrings`` of its module it also counts the identifier
    tokens of every other string constant.
    """

    def __init__(self, node, docstrings=None) -> None:
        self.names = collections.Counter()
        self._docstrings = docstrings
        self.visit(node)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        self.names[node.id] += 1

    def visit_Attribute(self, node) -> None:
        self.names[node.attr] += 1
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if (self._docstrings is not None and isinstance(node.value, str)
                and id(node) not in self._docstrings):
            self.names.update(_TOKEN.findall(node.value))


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _methods(tree):
    """``(qualified name, node)`` of every non-dunder method in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield f"{cls.name}.{node.name}", node


def _program():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in PROGRAM_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))}


def _module_name(path):
    """Dotted module name of a file under ``src/``, else ``None``."""
    if ROOT / "src" not in path.parents:
        return None
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Bindings:
    """Which top-level functions of ``src/repro`` each name is bound to.

    A function ``f`` of module ``M`` is bound to ``f`` inside ``M``, to
    ``g`` wherever ``from M import f as g`` (or the same from a package
    that re-exports ``f``) appears, and to ``<alias>.f`` wherever
    ``alias`` is bound to ``M`` or such a package.
    """

    def __init__(self, trees) -> None:
        self.trees = {_module_name(path): (path, tree)
                      for path, tree in trees.items()
                      if _module_name(path) is not None}
        self._exports = {}

    def _absolute(self, module, node) -> str:
        """Absolute module an ``ImportFrom`` inside ``module`` names."""
        if not node.level:
            return node.module
        path, _ = self.trees[module]
        package = module.split(".")
        if path.name != "__init__.py":
            package = package[:-1]
        package = package[:len(package) - node.level + 1]
        return ".".join(package + ([node.module] if node.module else []))

    def _target(self, module, name):
        """What ``module.name`` is: ``("module", m)``, ``("func", m, f)``
        or ``None``."""
        if f"{module}.{name}" in self.trees:
            return ("module", f"{module}.{name}")
        return self.exports(module).get(name)

    def exports(self, module) -> dict:
        """Top-level functions and modules ``module`` defines or imports."""
        if module in self._exports:
            return self._exports[module]
        self._exports[module] = found = {}
        if module not in self.trees:
            return found
        _, tree = self.trees[module]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[node.name] = ("func", module, node.name)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(module, node)
                for alias in node.names:
                    target = self._target(source, alias.name)
                    if target is not None:
                        found[alias.asname or alias.name] = target
        return found

    def names(self, path, tree) -> dict:
        """Local name → targets it is bound to anywhere in ``tree``."""
        module = _module_name(path)
        bound = collections.defaultdict(set)
        if module is not None:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound[node.name].add(("func", module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (self._absolute(module, node) if module is not None
                          else node.module)
                for alias in node.names:
                    target = self._target(source, alias.name)
                    if target is not None:
                        bound[alias.asname or alias.name].add(target)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    full = alias.name if alias.asname else name
                    bound[name].add(("module", full))
        return bound

    def resolve(self, node, bound) -> set:
        """Targets a ``Name`` or dotted ``Attribute`` chain refers to."""
        if isinstance(node, ast.Name):
            return bound.get(node.id, set())
        if isinstance(node, ast.Attribute):
            found = set()
            for target in self.resolve(node.value, bound):
                if target[0] == "module":
                    attr = self._target(target[1], node.attr)
                    if attr is not None:
                        found.add(attr)
            return found
        return set()


def _bound_uses(trees) -> set:
    """``(module, function)`` of every top-level function of ``src/``
    that some name bound to it uses, outside its own definition."""
    bindings = _Bindings(trees)
    used = set()
    local_names = {}
    for path, tree in trees.items():
        module = _module_name(path)
        bound = bindings.names(path, tree)
        stack = [(node, ()) for node in tree.body]
        while stack:
            node, scopes = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
                continue
            if isinstance(node, (ast.Name, ast.Attribute)) and not (
                    isinstance(node, ast.Name) and any(
                        node.id in local_names[id(scope)]
                        for scope in scopes)):
                for target in bindings.resolve(node, bound):
                    if target[0] == "func" and not (
                            target[1] == module and scopes
                            and scopes[0].name == target[2]):
                        used.add(target[1:])
            inner = scopes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                local_names[id(node)] = _locals(node)
                inner = scopes + (node,)
            stack.extend((child, inner)
                         for child in ast.iter_child_nodes(node))
    return used


_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def _string_tokens(trees) -> collections.Counter:
    """Identifier tokens of the program's dotted-name strings.

    Only a string that is a whole dotted name (``"f"``, ``"mod.f"``),
    not a docstring and not in ``__all__``, names a function: prose such
    as a help text saying "where" names nothing.
    """
    tokens = collections.Counter()
    for tree in trees.values():
        docstrings = _docstrings(tree)
        exported = {id(node) for assign in ast.walk(tree)
                    if isinstance(assign, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in assign.targets)
                    for node in ast.walk(assign)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings | exported
                    and _DOTTED.match(node.value)):
                tokens.update(_TOKEN.findall(node.value))
    return tokens


_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
           ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod",
           ast.Pow: "pow", ast.MatMult: "matmul", ast.BitAnd: "and",
           ast.BitOr: "or", ast.BitXor: "xor", ast.LShift: "lshift",
           ast.RShift: "rshift"}
_UNARY = {ast.USub: "__neg__", ast.UAdd: "__pos__", ast.Invert: "__invert__"}
_COMPARE = {ast.Lt: "__lt__", ast.LtE: "__le__", ast.Gt: "__gt__",
            ast.GtE: "__ge__", ast.Eq: "__eq__", ast.NotEq: "__ne__"}
_SUBSCRIPT = {ast.Load: "__getitem__", ast.Store: "__setitem__",
              ast.Del: "__delitem__"}
#: Builtins that iterate their arguments.
_ITERATING = {"iter", "list", "tuple", "set", "frozenset", "sorted",
              "enumerate", "zip", "sum", "min", "max", "dict", "any", "all"}
#: Dunders the language calls when an operator or a builtin is applied
#: to an instance; the method check matches them by operand type.
OPERATOR_DUNDERS = ({f"__{p}{op}__" for op in _BINARY.values()
                     for p in ("", "r", "i")}
                    | set(_UNARY.values()) | set(_COMPARE.values())
                    | set(_SUBSCRIPT.values())
                    | {"__contains__", "__len__", "__iter__", "__call__"})
#: Typing protocols, each with the dunders a class needs to be one: an
#: operand annotated with a protocol may hold any class that has them.
_PROTOCOLS = {
    "Sized": {"__len__"}, "Iterable": {"__iter__"},
    "Container": {"__contains__"}, "Callable": {"__call__"},
    "Collection": {"__len__", "__iter__", "__contains__"},
    "Sequence": {"__getitem__", "__len__"},
    "Mapping": {"__getitem__", "__iter__", "__len__"},
}
#: Generic annotations whose last parameter is the element type.
_CONTAINERS = {"List", "list", "Sequence", "Iterable", "Iterator", "Tuple",
               "tuple", "Set", "set", "Dict", "dict", "Mapping",
               "OrderedDict", "Deque", "deque"}


def _operator_dunders(tree):
    """``(qualified name, node, class)`` of every operator dunder."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name in OPERATOR_DUNDERS):
                    yield f"{cls.name}.{node.name}", node, cls.name


def _head(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Types:
    """Which program classes an expression may hold, guessed by name.

    An identifier (a local, a parameter, an attribute) holds every class
    some assignment binds it to anywhere — a constructor call, a call of
    a function annotated to return the class, another typed expression —
    and every class an annotation on it names.  ``self`` holds its class.
    Subscripting a name annotated as a container gives its element type.
    """

    def __init__(self, trees) -> None:
        self.bases = collections.defaultdict(set)
        self.dunders = collections.defaultdict(set)
        self.returns = collections.defaultdict(set)
        self.ids = collections.defaultdict(set)
        self.items = collections.defaultdict(set)
        nodes = [(node, scopes) for tree in trees.values()
                 for node, scopes in _scoped(tree)]
        for node, scopes in nodes:
            if isinstance(node, ast.ClassDef):
                self.bases[node.name] |= {_head(b) for b in node.bases} - {None}
                self.dunders[node.name] |= {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = node.name
                if (scopes and isinstance(scopes[-1], ast.ClassDef)
                        and node.name in OPERATOR_DUNDERS):
                    key = (scopes[-1].name, node.name)
                self.returns[key] |= self._annotation(node.returns)[0]
                for arg in (node.args.posonlyargs + node.args.args
                            + node.args.kwonlyargs):
                    self._bind(arg.arg, *self._annotation(arg.annotation))
            elif isinstance(node, ast.AnnAssign):
                self._bind(_head(node.target),
                           *self._annotation(node.annotation))
        for _ in range(4):  # assignments chain; a few rounds settle them
            for node, scopes in nodes:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                        node.value is not None:
                    found = self.of(node.value, scopes)
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        self._bind(_head(target), found, set())

    def _bind(self, name, types, items) -> None:
        if name is not None:
            self.ids[name] |= types
            self.items[name] |= items

    def _annotation(self, node):
        """``(types, element types)`` an annotation names."""
        if node is None:
            return set(), set()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return set(), set()
        if isinstance(node, ast.BinOp):  # X | None
            left, right = (self._annotation(side)
                           for side in (node.left, node.right))
            return left[0] | right[0], left[1] | right[1]
        if not isinstance(node, ast.Subscript):
            head = _head(node)
            return ({head} if head else set()), set()
        head = _head(node.value)
        args = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                else [node.slice])
        if head in ("Optional", "Union"):
            found = [self._annotation(arg) for arg in args]
            return (set().union(*(t for t, _ in found)),
                    set().union(*(i for _, i in found)))
        items = (self._annotation(args[-1])[0] if head in _CONTAINERS
                 else set())
        return {head} - {None}, items

    def of(self, node, scopes) -> set:
        """The classes expression ``node`` may hold."""
        if isinstance(node, ast.Name):
            if node.id == "self" and _owner(scopes) is not None:
                return {_owner(scopes)}
            return self.ids.get(node.id, set())
        if isinstance(node, ast.Attribute):
            return self.ids.get(node.attr, set())
        if isinstance(node, ast.Call):
            callee = _callee(node)
            if callee == "cls" and _owner(scopes) is not None:
                return {_owner(scopes)}
            if callee in self.bases:
                return {callee}
            return self.returns.get(callee, set())
        if isinstance(node, ast.Subscript):
            found = set(self.items.get(_head(node.value), set()))
            for held in self.of(node.value, scopes):
                found |= self.returns.get((held, "__getitem__"), set())
            return found
        if isinstance(node, ast.BinOp):
            return self.of(node.left, scopes) | self.of(node.right, scopes)
        if isinstance(node, ast.UnaryOp):
            return self.of(node.operand, scopes)
        if isinstance(node, ast.IfExp):
            return self.of(node.body, scopes) | self.of(node.orelse, scopes)
        if isinstance(node, ast.BoolOp):
            return set().union(*(self.of(value, scopes)
                                 for value in node.values))
        return set()

    def ancestors(self, name) -> set:
        found, todo = set(), [name]
        while todo:
            for base in self.bases.get(todo.pop(), ()):
                if base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    def may_hold(self, held, cls) -> bool:
        """Whether an operand typed ``held`` may be an instance of
        ``cls`` (or of a class ``cls``'s method serves)."""
        lineage = self.ancestors(cls)
        if held == cls or held in lineage or cls in self.ancestors(held):
            return True
        needs = _PROTOCOLS.get(held)
        return needs is not None and needs <= set().union(
            *(self.dunders.get(name, set()) for name in lineage | {cls}))


def _owner(scopes):
    """Name of the class of the innermost method in ``scopes``."""
    for index in range(len(scopes) - 1, 0, -1):
        if (isinstance(scopes[index], (ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(scopes[index - 1], ast.ClassDef)):
            return scopes[index - 1].name
    return None


def _operator_uses(trees) -> set:
    """``(class, dunder)`` for every operator the program applies to an
    operand typed as that class."""
    types = _Types(trees)
    applied = []  # (operand, dunder, scopes)
    for tree in trees.values():
        for node, scopes in _scoped(tree):
            if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
                name = _BINARY[type(node.op)]
                applied += [(node.left, f"__{name}__", scopes),
                            (node.right, f"__r{name}__", scopes)]
            elif isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
                name = _BINARY[type(node.op)]
                applied += [(node.target, f"__i{name}__", scopes),
                            (node.target, f"__{name}__", scopes)]
            elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
                applied.append((node.operand, _UNARY[type(node.op)], scopes))
            elif isinstance(node, ast.Compare):
                operands = [node.left] + node.comparators
                for index, op in enumerate(node.ops):
                    if isinstance(op, (ast.In, ast.NotIn)):
                        applied.append((operands[index + 1], "__contains__",
                                        scopes))
                    elif type(op) in _COMPARE:
                        applied.append((operands[index], _COMPARE[type(op)],
                                        scopes))
            elif isinstance(node, ast.Subscript):
                applied.append((node.value, _SUBSCRIPT[type(node.ctx)],
                                scopes))
            elif isinstance(node, (ast.For, ast.comprehension)):
                applied.append((node.iter, "__iter__", scopes))
            elif isinstance(node, ast.Starred):
                applied.append((node.value, "__iter__", scopes))
            elif isinstance(node, ast.Call):
                applied.append((node.func, "__call__", scopes))
                callee = _callee(node)
                if isinstance(node.func, ast.Name) and callee == "len":
                    applied += [(arg, "__len__", scopes) for arg in node.args]
                elif isinstance(node.func, ast.Name) and callee in _ITERATING:
                    applied += [(arg, "__iter__", scopes)
                                for arg in node.args]
    used = set()
    for tree in trees.values():
        for _, definition, cls in _operator_dunders(tree):
            used |= {(cls, dunder) for operand, dunder, scopes in applied
                     if dunder == definition.name and any(
                         types.may_hold(held, cls)
                         for held in types.of(operand, scopes))}
    return used


def _unreached(trees, level):
    """``(module path, name)`` for every definition nothing else uses."""
    docstrings = {path: _docstrings(tree) if level == "method" else None
                  for path, tree in trees.items()}
    uses = {path: _Uses(tree, docstrings[path]).names
            for path, tree in trees.items()}
    if level == "name":
        bound_uses = _bound_uses(trees)
        tokens = _string_tokens(trees)
    unreached = []
    operator_uses = None
    for path, tree in trees.items():
        if SOURCE not in path.parents:
            continue
        if level == "method":
            definitions = list(_methods(tree))
        else:
            definitions = [(node.name, node) for node in _public_defs(tree)]
        for qualified, definition in definitions:
            name = definition.name
            if not isinstance(definition, ast.ClassDef) and level == "name":
                if ((_module_name(path), name) in bound_uses
                        or tokens[name]):
                    continue
                unreached.append((str(path.relative_to(ROOT)), qualified))
                continue
            own = _Uses(definition, docstrings[path]).names
            if uses[path][name] > own[name] or any(
                    names[name] for other, names in uses.items()
                    if other != path):
                continue
            unreached.append((str(path.relative_to(ROOT)), qualified))
        if level == "method":
            operator_uses = operator_uses or _operator_uses(trees)
            unreached += [(str(path.relative_to(ROOT)), qualified)
                          for qualified, definition, cls
                          in _operator_dunders(tree)
                          if (cls, definition.name) not in operator_uses]
    return unreached


#: Dataclasses whose fields are settable values checked like parameters.
FIELDS = ("RetrievalConfig", "ServingArtifacts")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _defaulted(function) -> list:
    """Names of the parameters of ``function`` that have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    names = [arg.arg for arg in positional[len(positional)
                                           - len(args.defaults):]]
    names += [arg.arg for arg, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
              if default is not None]
    return names


def _scoped(tree):
    """``(node, enclosing scopes)`` for every node of ``tree``."""
    stack = [(tree, ())]
    while stack:
        node, scopes = stack.pop()
        yield node, scopes
        inner = scopes + (node,) if isinstance(node, _SCOPES) else scopes
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _bases(cls) -> set:
    return {base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases
            if isinstance(base, (ast.Name, ast.Attribute))}


def _locals(scope) -> set:
    """Names a function binds itself (its own name included)."""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = scope.args
    found = {scope.name}
    found.update(arg.arg for arg in args.posonlyargs + args.args
                 + args.kwonlyargs)
    found.update(node.id for node in ast.walk(scope)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store))
    return found


def _set_by(call, positional, names) -> set:
    """Which of ``names`` the arguments of ``call`` set."""
    found = set()
    for keyword in call.keywords:
        if keyword.arg is None:
            return set(names)
        found.add(keyword.arg)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            found.update(positional[index:])
            break
        if index < len(positional):
            found.add(positional[index])
    return found & set(names)


class _Settables:
    """Every settable value in ``src/repro`` and the calls that set it."""

    def __init__(self, trees) -> None:
        self.calls = []
        self.passed = set()     # top-level functions used as values
        self.classes = collections.defaultdict(list)
        top_level = {node.name for path, tree in trees.items()
                     if SOURCE in path.parents for node in tree.body
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
        for tree in trees.values():
            # A function is passed as a value under the name its module
            # imports or defines it by, not under a local that shares it.
            bound = top_level & (
                {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
                | {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)})
            callees = set()
            names = []
            for node, scopes in _scoped(tree):
                if isinstance(node, ast.Call):
                    self.calls.append((node, scopes))
                    callees.add(id(node.func))
                elif isinstance(node, ast.ClassDef):
                    self.classes[node.name].append(node)
                elif isinstance(node, ast.Name) and node.id in bound:
                    names.append((node, scopes))
            for node, scopes in names:
                if (isinstance(node.ctx, ast.Load)
                        and id(node) not in callees
                        and not any(node.id in _locals(scope)
                                    for scope in scopes)):
                    self.passed.add(node.id)

    def constructors(self, name) -> set:
        """``name`` and its subclasses that inherit its ``__init__``."""
        found = {name}
        grew = True
        while grew:
            grew = False
            for other, nodes in self.classes.items():
                if other not in found and any(
                        _bases(cls) & found and not any(
                            isinstance(node, ast.FunctionDef)
                            and node.name == "__init__"
                            for node in cls.body)
                        for cls in nodes):
                    found.add(other)
                    grew = True
        return found

    def set_in_program(self, definition, owner, positional, names) -> set:
        """Which of ``names`` some call outside ``definition`` sets.

        ``definition`` is a function, or the class itself for fields;
        ``owner`` is the class of a method or field, else ``None``.
        """
        constructs = owner is not None and (
            definition is owner or definition.name == "__init__")
        classes = self.constructors(owner.name) if constructs else set()
        found = set()
        for call, scopes in self.calls:
            if definition in scopes:
                continue
            callee = _callee(call)
            if not constructs:
                matches = callee == definition.name
            elif callee in classes or (callee == "cls" and owner in scopes):
                matches = True
            elif definition is owner:
                # ``replace(obj, field=...)``; any dataclass may be the
                # target of a ``**`` replace, so only named fields count.
                if callee == "replace":
                    found.update(keyword.arg for keyword in call.keywords
                                 if keyword.arg in names)
                continue
            else:
                classes_here = [scope for scope in scopes
                                if isinstance(scope, ast.ClassDef)]
                matches = (callee == "__init__"
                           and isinstance(call.func.value, ast.Call)
                           and _callee(call.func.value) == "super"
                           and bool(classes_here)
                           and bool(_bases(classes_here[-1]) & classes))
            if matches:
                found |= _set_by(call, positional, names)
        return found


def _parameters(tree):
    """``(qualified name, definition, owner, positional, defaulted)``.

    Methods are qualified ``Class.method``; ``owner`` is the class of a
    method and ``None`` for a function.  Fields of the classes named in
    ``FIELDS`` come with the class as both definition and owner.
    """
    owners = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owners[child] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in FIELDS:
            fields = [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)]
            yield node.name, node, node, fields, fields
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(node)
        positional = [arg.arg for arg in node.args.posonlyargs
                      + node.args.args]
        if not isinstance(owner, ast.ClassDef):
            yield node.name, node, None, positional, _defaulted(node)
            continue
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if "staticmethod" not in decorators:
            positional = positional[1:]
        yield (f"{owner.name}.{node.name}", node, owner, positional,
               _defaulted(node))


def _unset_parameters(trees):
    """``(module path, name.param)`` for every value no program call sets."""
    settables = _Settables(trees)
    unset = []
    for path, tree in trees.items():
        if SOURCE not in path.parents:
            continue
        for qualified, definition, owner, positional, names in \
                _parameters(tree):
            name = getattr(definition, "name", "")
            if not names or (name.startswith("__") and name.endswith("__")
                             and name != "__init__"):
                continue
            if owner is None and name in settables.passed:
                continue
            found = settables.set_in_program(definition, owner,
                                             positional, names)
            unset.extend((str(path.relative_to(ROOT)), f"{qualified}.{param}")
                         for param in names if param not in found)
    return unset


def _report(level):
    unreached = [f"{path}: {name}" for path, name in _unreached(_program(),
                                                                 level)
                 if name not in KEEP]
    assert not unreached, (
        f"{level}s that nothing in src/, examples/ or benchmarks/ uses; "
        "delete them or add them to KEEP with a reason:\n  "
        + "\n  ".join(unreached))


def test_every_public_name_is_reached():
    _report("name")


def test_every_method_is_reached():
    _report("method")


def test_every_parameter_is_set():
    unset = [f"{path}: {name}"
             for path, name in _unset_parameters(_program())
             if name not in KEEP]
    assert not unset, (
        "defaulted parameters and fields that no call in src/, examples/ "
        "or benchmarks/ sets; make them constants or add them to KEEP "
        "with a reason:\n  " + "\n  ".join(unset))


def test_keep_entries_are_defined():
    """Every KEEP entry names a definition or a defaulted parameter."""
    defined = set()
    for path in SOURCE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        defined.update(definition.name for definition in _public_defs(tree))
        defined.update(qualified for qualified, _ in _methods(tree))
        defined.update(qualified
                       for qualified, _, _ in _operator_dunders(tree))
        defined.update(f"{qualified}.{param}"
                       for qualified, _, _, _, names in _parameters(tree)
                       for param in names)
    assert not set(KEEP) - defined, "stale KEEP entries"
