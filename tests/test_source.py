"""Static checks over the package source."""

import argparse
import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

import chebotarev

SRC = Path(__file__).resolve().parents[1] / "src" / "chebotarev"


@functools.cache
def _tree(name):
    # each src/ file is parsed once per session
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so runtime invariants must raise
    lines = [node.lineno for node in ast.walk(_tree(path.name)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("name", chebotarev.__all__)
def test_public_names_resolve(name):
    # a removed export must also leave __all__, which a plain import never checks
    assert hasattr(chebotarev, name)


@functools.cache
def _call_index():
    # call name -> [(file, innermost enclosing function)] over src/, one
    # walk per file: each line's owner is written by its defs widest first,
    # so the innermost (on a tie, the first walked) is written last
    index = {}
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(_tree(path.name)))
        defs = [n for n in nodes if isinstance(n, ast.FunctionDef)]
        owner = {}
        for d in sorted(defs[::-1], key=lambda d: d.lineno - d.end_lineno):
            owner.update(dict.fromkeys(range(d.lineno, d.end_lineno + 1), d.name))
        for node in nodes:
            f = getattr(node, "func", None)
            name = getattr(f, "attr", getattr(f, "id", None))
            if name is not None:
                index.setdefault(name, []).append((path.name, owner.get(node.lineno)))
    return index


def _calls(name):
    # (file, innermost enclosing function) of every call to ``name`` in src/
    return list(_call_index().get(name, []))


def test_one_bound_report_pipeline():
    # every bound verdict comes from verify.analyze; another caller of
    # build_bound_report would be a second pipeline
    assert _calls("build_bound_report") == [("verify.py", "analyze")]


def test_one_chain_engine():
    # C(G), P_I(G, k) and the restricted waiting sums each read the law a
    # sieve system keeps from its one walk over the alive masks; a reader
    # that walks would be a second engine, and a stored chain a second pass
    assert _calls("_wait_law") == [("exact.py", "_law")]
    assert "_alive_chain" not in _defined()
    assert "_expected_wait" not in _defined()
    tree = _tree("exact.py")
    defs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    # the walk's post-order is topological, so the masks are never sorted
    calls = [n.func for n in ast.walk(defs["_wait_law"]) if isinstance(n, ast.Call)]
    assert not {getattr(f, "attr", getattr(f, "id", None)) for f in calls} & {"sorted", "sort"}
    # P_I(G, k) is one sum over the law's terms, with no loop over k
    fn = defs["invariable_gen_prob"]
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [n for n in ast.walk(fn) if isinstance(n, loops)]


def test_one_maximal_subgroup_route():
    # maximal subgroups, d(G) and nonabelian complementedness all go
    # through the soluble radical: no solubility fork in subgroups, and
    # only G/R walks the subgroup lattice
    assert [c for c in _calls("is_soluble") if c[0] == "subgroups.py"] == []
    assert sorted(set(_calls("all_subgroups"))) == [
        ("crowns.py", "radical_quotient_min_generators"),
        ("subgroups.py", "subgroup_classes"),
    ]
    assert sorted(set(_calls("subgroup_classes"))) == [
        ("crowns.py", "_has_complement"),
        ("crowns.py", "maximal_subgroups"),
    ]


def test_one_conjugation_path():
    # conjugation is read off the cached two-column conjugation maps, and
    # the maximal classes of G/R are the lattice walk's own classes, not
    # conjugation orbits walked again
    assert [c for c in _calls("mult") if c[1] == "conj_map"] == []
    assert ("perm.py", "conj_map") in _calls("column_at")
    assert [c for c in _calls("conj_bits") if c[1] == "maximal_subgroups"] == []


def test_one_product_reader():
    # products are read off one column store over one Cayley graph: no
    # all-at-once table, no per-letter word walk and no second graph, and
    # mult reads a kept column or asks column_at, never the graph itself
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            names.add(getattr(node, "attr", getattr(node, "id", getattr(node, "name", None))))
    assert not {"_ensure_table", "_word", "_mult_table", "_gen_right"} & names
    tree = _tree("perm.py")
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "mult")
    read = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert not {"_right", "_parent", "_via"} & read
    assert [c for c in _calls("column_at") if c[1] == "mult"] == [("perm.py", "mult")]


def test_crowns_never_reads_the_maximal_classes():
    # complementedness comes from the complement systems; maximal_classes
    # of a soluble G is itself built from them
    tree = _tree("crowns.py")
    called = {
        getattr(n.func, "attr", getattr(n.func, "id", None))
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
    }
    assert "maximal_classes" not in called


def _defined():
    # the names of every function defined in src/
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    return defined


def test_one_solubility_route():
    # solubility is read off the cached chief series, with no derived series
    # beside it, and normality checks witnesses x generators, not the
    # conjugate of every element
    assert "derived_series_bits" not in _defined()
    assert _calls("derived_series_bits") == []
    assert ("perm.py", "is_soluble") in _calls("chief_series")
    assert [c for c in _calls("conj_bits") if c[1] == "is_normal"] == []


def test_one_acting_group():
    # H = G/C_G(V) is built once per module, as a permutation group on V's
    # vectors: no matrix closure beside it, and no module built elsewhere
    # (such as a probe module for the commutant field)
    assert {c for c in _calls("PermGroup") if c[0] == "crowns.py"} == {
        ("crowns.py", "_acting_group")
    }
    assert set(_calls("ChiefFactorModule")) == {("crowns.py", "_factor_module")}
    assert not {"mat_mul", "mat_identity"} & _defined()


def test_one_primality_check():
    # one trial division: check_prime reads the least prime divisor and
    # loops over nothing itself
    tree = _tree("groupspec.py")
    fn = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "check_prime"
    )
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [n for n in ast.walk(fn) if isinstance(n, loops)]
    assert ("groupspec.py", "check_prime") in _calls("_least_prime")


def test_omega_from_the_complemented_chief_factor():
    # Omega_V membership is read off the chief factor each maximal class
    # complements, so no socle of G/core(M) is computed; every coset
    # partition is kept, with no knob to skip the memo
    assert "socle_factor_modules" not in _defined()
    assert [c for c in _calls("minimal_normal_subgroups") if c[1] == "omega_membership"] == []
    assert "keep" not in inspect.signature(chebotarev.subgroups._cosets).parameters


def test_maximal_classes_own_the_family():
    # maximal_classes(G) is the one copy of the maximal-class family: no
    # module reads SieveSystem.raw_unions (kept for the benchmark's trace
    # alone) or names raw_signatures, and Omega masks index G's own classes,
    # so neither omega_membership nor v_property_sum takes a family to align
    readers = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if "raw_signatures" in text:
            readers.append((path.name, "raw_signatures"))
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Attribute) and node.attr == "raw_unions":
                readers.append((path.name, node.lineno))
    assert readers == []
    fields = [f.name for f in dataclasses.fields(chebotarev.exact.SieveSystem)]
    assert "raw_signatures" not in fields
    assert list(inspect.signature(chebotarev.omega_membership).parameters) == ["G", "V"]
    assert list(inspect.signature(chebotarev.v_property_sum).parameters) == ["G", "omega_mask"]


def test_class_level_sieve_family():
    # a maximal class is one representative and the mask of G's classes
    # that meet it: no conjugate is listed, no |G|-bit union or core is
    # kept, the signatures are not read back through binary strings, the
    # complement systems build one complement per class, and masks become
    # signatures in one builder, which the whole family and the restricted
    # sums' selections both reach
    fields = [f.name for f in dataclasses.fields(chebotarev.subgroups.MaximalClassData)]
    assert fields == ["representative", "class_mask"]
    assert not {"complements", "_complement_classes", "_union_signatures"} & _defined()
    assert "_signatures" not in _defined()
    assert sorted(_calls("_sieve_system")) == [
        ("exact.py", "build_sieves"),
        ("exact.py", "v_property_sum"),
    ]


def test_complement_classes_from_one_elimination():
    # complements and derivations share one cocycle solve, which fixes the
    # B^1 gauge inside the system: one elimination of B^1 for its pivot
    # columns and one of the augmented system, with no reduction modulo
    # B^1 afterwards and no second Z^1 or B^1 elimination in derivations;
    # the solve writes its own rows, with no second function for them
    assert not {"modulo_b1", "_coboundary_rows", "_cocycle_rows"} & _defined()
    rref = _calls("_rref")
    assert rref.count(("crowns.py", "_cocycle_solve")) == 2
    assert not {("crowns.py", "_complement_system"), ("crowns.py", "derivations")} & set(rref)
    assert sorted(_calls("_cocycle_solve")) == [
        ("crowns.py", "_complement_system"),
        ("crowns.py", "derivations"),
    ]
    assert ("crowns.py", "derivations") not in _calls("mat_rank")


def test_one_definition_of_the_stream():
    # mc._blocks is the one place where the PCG64 stream becomes draws: no
    # src/ module builds a numpy Generator or calls its integers, so the
    # stream oracle in tests/oracles.py, which does, checks an independent
    # derivation of the same values
    assert _calls("integers") == []
    assert _calls("Generator") == []
    assert _calls("random_raw") == [("mc.py", "_blocks")]


def test_oracle_only_code_stays_in_tests():
    # these have no caller in src/; they live in tests/oracles.py, or the
    # tests read the primitives (conj_map, closure_bits) directly
    assert not {
        "section_centralizer",
        "is_complemented",
        "element_order",
        "module_order",
        "conj",
        "generated",
    } & _defined()


def test_one_prime_power_test():
    # one prime-power test beside the one least-prime search, read by the
    # chief series and by the class closures that _minimal_normal reads
    owners = [p.name for p in sorted(SRC.glob("*.py")) if "def _is_prime_power(" in p.read_text()]
    assert owners == ["subgroups.py"]
    assert {("crowns.py", "chief_series"), ("subgroups.py", "_class_closures")} <= set(
        _calls("_is_prime_power")
    )


def test_normal_closure_keeps_its_signature():
    # a closure that starts from <x> goes through a private helper, so the
    # public method takes the seeds alone
    params = inspect.signature(chebotarev.perm.PermGroup.normal_closure_bits).parameters
    assert list(params) == ["self", "seeds"]
    assert ("subgroups.py", "_class_closures") in _calls("_normal_closure_from")


def test_one_memo():
    # every per-group result is kept by perm.per_group: no other function
    # reads or writes G._cache, and the sieves take no hand-made classes
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                outer = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                owners.add((path.name, max(outer, key=lambda d: d.end_lineno - d.lineno).name))
    assert owners == {("perm.py", "per_group"), ("perm.py", "__init__")}
    crowns = chebotarev.crowns
    for fn in (chebotarev.exact.build_sieves, crowns.chief_series, crowns.crown_data):
        assert list(inspect.signature(fn).parameters) == ["G"]
    # one chief series per group: the memo keys positional arguments only,
    # the series names no group, and crown data has one name per field
    memo = inspect.signature(crowns.chief_series, follow_wrapped=False)
    assert inspect.Parameter.VAR_KEYWORD not in {p.kind for p in memo.parameters.values()}
    assert "group" not in {f.name for f in dataclasses.fields(crowns.ChiefSeries)}
    fields = [f.name for f in dataclasses.fields(crowns.CrownData)]
    assert fields == ["A", "B", "nonabelian_factors"]
    assert not [n for n, v in vars(crowns.CrownData).items() if isinstance(v, property)]
    # conj_map is read in hot loops, so it keeps its own per-g dict
    tree = _tree("perm.py")
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "conj_map")
    read = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert fn.decorator_list == [] and "_conj_maps" in read


def test_checks_only_at_entry_points():
    # a section is checked once, where a caller hands it in: the chief
    # series pipeline calls the private builders on the terms it built
    # itself, and no knob turns the check off
    for name in ("factor_module", "minimal_normal_subgroups"):
        assert _calls(name) == []
    assert _calls("_check_chief_factor") == [("crowns.py", "factor_module")]
    assert sorted(set(_calls("is_normal"))) == [
        ("crowns.py", "_check_chief_factor"),
        ("perm.py", "quotient"),
        ("subgroups.py", "minimal_normal_subgroups"),
    ]
    assert "check_chief" not in inspect.signature(chebotarev.crowns.factor_module).parameters


def test_records_keep_only_what_is_read():
    # every field of the analysis records has a reader: the inputs stay
    # with the caller, and the CLI renders the 5/3 bound and the
    # per-class terms itself
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    bounds, verify = chebotarev.bounds, chebotarev.verify
    assert fields(bounds.BoundReport) == [
        "crown_bound_value",
        "min_generator_bound_value",
        "degenerate_family",
        "verdicts",
    ]
    assert fields(verify.GroupWork) == ["group", "exact", "crowns", "d", "report"]
    sieve_fields = fields(chebotarev.exact.SieveSystem)
    assert "sieve_count" in sieve_fields and "reduced_unions" not in sieve_fields
    assert "alpha" not in fields(bounds.RatioCheckResult)
    for fn in (bounds.build_bound_report, verify.analyze):
        assert not {"group_id", "label"} & set(inspect.signature(fn).parameters)
    assert not {"FactorBoundDetail", "_crown_term", "_frac_str", "build_group"} & (
        _defined() | {n for n in dir(bounds) if not n.startswith("__")}
    )
    # the harness keeps its analyses through functools.cache, with no
    # hand-written dict beside it
    tree = _tree("verify.py")
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            assert not isinstance(value, (ast.Dict, ast.DictComp))
            assert getattr(getattr(value, "func", None), "id", None) != "dict"
    assert hasattr(verify.work_for, "cache_info")


def test_front_end_states_each_case_once():
    # the integer-argument heads are one table, not one branch each; the
    # verify items are checks made into items by one decorator; and the
    # grammar in the groupspec docstring lists exactly the accepted heads
    groupspec, verify = chebotarev.groupspec, chebotarev.verify
    tree = _tree("groupspec.py")
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_parse_spec")
    compared = {
        c.value
        for n in ast.walk(fn)
        if isinstance(n, ast.Compare) and getattr(n.left, "id", None) == "head"
        for c in n.comparators
        if isinstance(c, ast.Constant)
    }
    table = set(groupspec._CONSTRUCTORS)
    assert compared and not compared & table
    grammar = groupspec.__doc__.split("\n\n")[2]
    documented = {line.split()[0] for line in grammar.splitlines()}
    assert documented == table | compared
    tree = _tree("verify.py")
    assert "run" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    probe = verify._item("key", "title")(lambda details: True)
    assert len(verify.ALL_ITEMS) == 10
    assert all(item.__code__ is probe.__code__ for item in verify.ALL_ITEMS)


def test_cli_states_each_command_once():
    # each subcommand is one key of cli.COMMANDS: main dispatches through
    # the table rather than comparing the command name, the parser adds one
    # subparser per key, and every report leaves through one json.dumps
    from chebotarev import cli

    tree = _tree("cli.py")
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    for node in ast.walk(main):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(getattr(o, "attr", None) == "command" for o in operands):
                assert not any(isinstance(o, ast.Constant) for o in operands)
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)
    dumps = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "json.dumps"
    ]
    assert len(dumps) == 1
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not {"_group_block", "_factor_block"} & defined
