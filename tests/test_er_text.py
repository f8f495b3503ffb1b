import hashlib
import random
from unittest import mock

import pytest

from conftest import golden_path, named
from er2rds import emit_er, er_text, format_diagnostic, parse_er, validate_notation
from er2rds.model import (
    Attribute, AttributeKind, ERModel, RegularEntityType, Severity, Subtype,
)
from genmodels import generate_model
from geninputs import colliding_text, repeating_text


def parse_clean(text):
    model, diagnostics = parse_er(text, "test.er")
    assert model is not None and not diagnostics, diagnostics
    return model


def rule_ids(diagnostics):
    return [d.rule_id for d in diagnostics]


class TestParsing:
    def test_golden_file_round_trips_byte_for_byte(self, company_text):
        model = parse_clean(company_text)
        assert emit_er(model) == company_text

    def test_reads_all_construct_kinds(self, company_model):
        assert [e.name for e in company_model.entities] == \
            ["Employee", "Department", "Project"]
        assert [s.name for s in company_model.subtypes] == ["Engineer", "Manager"]
        assert [w.name for w in company_model.weak_entities] == ["Dependent"]
        assert [r.name for r in company_model.relationships] == \
            ["Controls", "Manages", "Consult"]

    def test_attribute_kinds_follow_member_keywords(self, company_model):
        department = named(company_model.entities, "Department")
        kinds = [(a.name, a.kind) for a in department.attributes]
        assert kinds == [
            ("DepNo", AttributeKind.KEY),
            ("Name", AttributeKind.KEY),
            ("Field", AttributeKind.SIMPLE),
            ("Location", AttributeKind.MULTIVALUED),
        ]

    def test_weak_entity_fields(self, company_model):
        (dependent,) = [weak for weak in company_model.weak_entities
                        if weak.name == "Dependent"]
        assert dependent.owner == "Employee"
        assert dependent.identifying_relationship == "DependentOf"
        assert dependent.partial_key.name == "Name"
        assert [a.name for a in dependent.attributes] == ["Sex", "Relation"]

    def test_relationship_endpoints_keep_declaration_order(self, company_model):
        (controls,) = [rel for rel in company_model.relationships
                       if rel.name == "Controls"]
        assert [(ep.participant, ep.pair.min, ep.pair.max)
                for ep in controls.endpoints] == \
            [("Department", "1", "n"), ("Project", "1", "1")]

    def test_members_may_appear_in_any_order(self):
        model = parse_clean("entity Employee { attr Name; key EmpNo; }")
        assert [a.name for a in named(model.entities, "Employee").attributes] == \
            ["Name", "EmpNo"]

    def test_uppercase_n_maximum_is_normalized(self):
        model = parse_clean(
            "entity Alpha { key AlpNo; }\n"
            "entity Bravo { key BraNo; }\n"
            "rel Grove (Alpha 1..N, Bravo 1..1) { }"
        )
        (grove,) = [rel for rel in model.relationships if rel.name == "Grove"]
        assert grove.endpoints[0].pair.max == "n"

    def test_comments_and_blank_lines_are_ignored(self):
        model = parse_clean(
            "// a comment\n\nentity Employee { // inline\n  key EmpNo;\n}\n"
        )
        assert named(model.entities, "Employee") is not None

    def test_empty_input_is_an_empty_model(self):
        assert parse_clean("") is not None


class TestParseErrors:
    def test_non_alphabetic_name_is_a_character_class_error(self):
        model, diagnostics = parse_er("entity Employee { attr Start_Date; }")
        assert model is None
        assert rule_ids(diagnostics) == ["R2.5.2"]
        assert diagnostics[0].line == 1

    def test_one_bad_name_yields_one_diagnostic(self):
        _, diagnostics = parse_er("entity Emp1oyee2 { key EmpNo; }")
        assert rule_ids(diagnostics) == ["R2.5.2"]

    def test_a_hash_does_not_start_a_comment(self):
        model, diagnostics = parse_er("# c")
        assert model is None
        first = diagnostics[0]
        assert (first.rule_id, first.message) == ("SYNTAX", "unexpected character '#'")
        assert (first.line, first.column) == (1, 1)

    def test_a_trailing_comment_counts_toward_the_end_column(self):
        model, diagnostics = parse_er("entity Abc { key AbcNo; // c")
        assert model is None
        last = diagnostics[-1]
        assert last.message == "unterminated block, expected '}'"
        assert (last.line, last.column) == (1, 29)

    def test_every_one_of_many_lines_is_located(self):
        # The line starts are found once, not counted again for each error.
        _, diagnostics = parse_er("#\n" * 100_000)
        assert rule_ids(diagnostics) == ["SYNTAX"] * 100_000
        last = diagnostics[-1]
        assert (last.line, last.column) == (100_000, 1)

    def test_missing_semicolon(self):
        model, diagnostics = parse_er("entity Employee { key EmpNo }")
        assert model is None
        assert rule_ids(diagnostics) == ["SYNTAX"]

    def test_recovery_continues_at_the_next_construct(self):
        _, diagnostics = parse_er(
            "entity Employee { key }\nentity Department { broken\n"
        )
        assert len([d for d in diagnostics if d.rule_id == "SYNTAX"]) == 2

    def test_member_keyword_must_fit_the_construct(self):
        _, diagnostics = parse_er("entity Employee { partial Name; key EmpNo; }")
        assert rule_ids(diagnostics) == ["SYNTAX"]

    @pytest.mark.parametrize("pair", ["2..n", "1..2", "0..0"])
    def test_cardinality_bounds_are_restricted(self, pair):
        _, diagnostics = parse_er(
            "entity Alpha { key AlpNo; }\n"
            "entity Bravo { key BraNo; }\n"
            f"rel Grove (Alpha {pair}, Bravo 1..1) {{ }}"
        )
        assert "SYNTAX" in rule_ids(diagnostics)

    def test_duplicate_global_names(self):
        _, diagnostics = parse_er(
            "entity Employee { key EmpNo; }\nsubtype Employee of Employee { }"
        )
        assert rule_ids(diagnostics) == ["REF"]

    def test_identifying_relationship_name_joins_the_global_namespace(self):
        _, diagnostics = parse_er(
            "entity Employee { key EmpNo; }\n"
            "entity DependentOf { key DepNo; }\n"
            "weak Dependent of Employee via DependentOf { partial Name; }"
        )
        assert rule_ids(diagnostics) == ["REF"]

    def test_a_repeated_name_is_reported_in_source_order(self):
        # At its own construct, ahead of that construct's other problems, as
        # validate_notation reports the same model built in code.
        _, diagnostics = parse_er(
            "entity Alpha { key AlpNo; }\n"
            "subtype Beta of Ghost { attr Grade; }\n"
            "subtype Beta of Ghost { attr Grade; }"
        )
        found = [(d.line, d.message) for d in diagnostics]
        assert found == [
            (2, "supertype 'Ghost' is not a regular entity type"),
            (3, "name 'Beta' is already declared"),
            (3, "supertype 'Ghost' is not a regular entity type"),
        ]
        alpha = RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),))
        beta = Subtype("Beta", "Ghost", (Attribute("Grade"),))
        model = ERModel((alpha,), (beta, beta), (), ())
        assert [d.message for d in validate_notation(model)] == \
            [message for _, message in found]

    def test_unknown_supertype(self):
        _, diagnostics = parse_er("subtype Engineer of Employee { attr Grade; }")
        assert rule_ids(diagnostics) == ["REF"]

    def test_subtype_of_a_subtype_is_rejected(self):
        _, diagnostics = parse_er(
            "entity Employee { key EmpNo; }\n"
            "subtype Engineer of Employee { attr Grade; }\n"
            "subtype Trainee of Engineer { attr Level; }"
        )
        assert rule_ids(diagnostics) == ["REF"]

    def test_unknown_relationship_participant(self):
        _, diagnostics = parse_er(
            "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1..n, Ghost 1..1) { }"
        )
        assert rule_ids(diagnostics) == ["REF"]

    def test_duplicate_attribute_within_a_construct(self):
        _, diagnostics = parse_er("entity Employee { key EmpNo; attr EmpNo; }")
        assert rule_ids(diagnostics) == ["REF"]

    def test_entity_requires_a_key(self):
        model, diagnostics = parse_er("entity Employee { attr Name; }")
        assert model is None
        assert rule_ids(diagnostics) == ["MODEL"]

    def test_weak_entity_requires_exactly_one_partial_key(self):
        _, diagnostics = parse_er(
            "entity Employee { key EmpNo; }\n"
            "weak Dependent of Employee via DependentOf "
            "{ partial Name; partial Nick; }"
        )
        assert rule_ids(diagnostics) == ["MODEL"]

    def test_a_repeated_partial_key_is_left_out_before_partial_keys_are_counted(self):
        _, diagnostics = parse_er(
            "entity Alpha { key AlpNo; }\n"
            "weak Badge of Alpha via BadgeOf { partial Pin; partial Pin; attr Grade; }"
        )
        assert [(d.line, d.rule_id, d.message) for d in diagnostics] == \
            [(2, "REF", "attribute 'Pin' declared more than once")]

    def test_a_weak_entity_reports_its_problems_in_order(self):
        _, diagnostics = parse_er(
            "entity Alpha { key AlpNo; }\n"
            "weak Alpha of Ghost via AlphaOf { attr Grade; attr Grade; }"
        )
        assert [(d.line, d.rule_id, d.message) for d in diagnostics] == [
            (2, "REF", "name 'Alpha' is already declared"),
            (2, "REF", "attribute 'Grade' declared more than once"),
            (2, "REF", "owner 'Ghost' is not a regular entity type"),
            (2, "MODEL", "weak entity 'Alpha' needs exactly one partial key, found 0"),
        ]

    def test_errors_suppress_the_model(self):
        model, diagnostics = parse_er("entity { }")
        assert model is None
        assert all(d.severity is Severity.ERROR for d in diagnostics)


class TestEmission:
    def test_empty_blocks_are_written_inline(self):
        model = parse_clean("entity Employee { key EmpNo; }\n"
                            "subtype Manager of Employee { }\n"
                            "rel Manages (Manager 1..1, Employee 1..1) { }")
        text = emit_er(model)
        assert "subtype Manager of Employee { }" in text
        assert "rel Manages (Manager 1..1, Employee 1..1) { }" in text

    def test_layout_is_canonicalized(self):
        messy = "entity   Employee{key EmpNo;attr Name;}"
        model = parse_clean(messy)
        assert emit_er(model) == (
            "entity Employee {\n  key EmpNo;\n  attr Name;\n}\n"
        )

    def test_emission_is_stable_under_reparse(self, company_text):
        once = emit_er(parse_clean(company_text))
        again = emit_er(parse_clean(once))
        assert once == again


_CLEAN_EDGE_TEXTS = [
    "entity\tAbc\t{\tkey\tAbcNo;\t}",
    "entity Abc {\r\n  key AbcNo;\r\n}\r\n",
    "entity Abc { key AbcNo;// right after a semicolon\n}",
    "entity Abc { key AbcNo //c\n; }",
    "entity Abc { key AbcNo; } // at the end of input",
    "entity Abc { key AbcNo; } //",
    "entity Abc { key AbcNo; }\n///",
    "entity Abc { key AbcNo; } // caf\u00e9 \u00b2",
    "entity entity { key key; attr attr; multi multi; }\n"
    "subtype of of entity { attr of; }\n"
    "weak via of entity via rel { partial via; attr weak; }\n"
    "rel n (entity 1..N, of 0..n) { attr n; }",
    "entity Alpha { key AlpNo; }\nentity Bravo { key BraNo; }\n"
    "rel Grove (Alpha 0..N, Bravo 1..1) { attr Since; }",
    "entity Alpha{key AlpNo;}entity Bravo{key BraNo;}rel Grove(Alpha 1..n,Bravo 0..1){}",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1 .. n, Alpha 0..1) { }",
    "",
    "   \n\t// only a comment",
]

# Texts with a diagnostic, or with a non-ASCII letter that str.isalpha takes.
_POSITIONED_EDGE_TEXTS = [
    "entity Abc { key AbcNo// right after a name\n; }",
    "entity Abc { key AbcNo; } 1//c",
    "entity Caf\u00e9 { key Caf\u00e9No; }",
    "entity Abc { key AbcNo\u00b2; }",
    "entity Abc\u00b2 { key AbcNo; }",
    "entity Abc { key Abc1No; }",
    "entity Abc { key Abc_No; }",
    "entity Abc { key Abc-No; }",
    "entity Abc { key Abc/No; }",
    "entity Abc { key AbcNo; }\f",
    "entity Abc { key AbcNo; }\v",
    "entity Abc { key AbcNo; } .",
    "entity Abc { key AbcNo; } /",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1...n, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 2..n, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1..m, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 01..n, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1..nn, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1..1n, Alpha 0..1) { }",
    "entity Alpha { key AlpNo; } rel",
    "entity Alpha { key AlpNo; attr }",
    "entity Alpha { key AlpNo; partial Pa; }",
    "entity Alpha { key ; }",
    "entity Alpha { key AlpNo }",
    "entity Alpha { }",
    "entity Alpha { key AlpNo; key AlpNo; }",
    "entity Alpha { key AlpNo; }\nentity Alpha { key AlpNo; }",
    "weak Dep of Ghost via DepOf { partial Name; attr Sex; }",
    # Where str.isalpha and str.isdigit part from re's \w and \d, blanks
    # that the grammar does not skip, and a digit run before '//'.
    "entity Abc { key AbcNo; } \u00bd",
    "entity Abc { key Abc\u00bdNo; }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha 1\u00bd..n, Alpha 0..1) { }",
    "entity Abc { key AbcNo; } \u2460\u2461",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha \u2460..n, Alpha 0..1) { }",
    "entity Abc { key AbcNo; }\n\u00b2x { }",
    "entity Alpha { key AlpNo; }\nrel Grove (Alpha \u0663..n, Alpha 0..1) { }",
    "entity Abc { key Abc\u0663; }",
    "entity \u216b { key AbcNo; }",
    "entity Abc { key Abc\u216bNo; }",
    "entity \u3007 { key AbcNo; }",
    "entity Abc\u3007 { key AbcNo; }",
    "entity \u01c5ab { key \u02b0No; }\nentity Bcd { key Bcd\u01c5; attr \u02b0; }",
    "entity Abc {\u00a0key AbcNo; }",
    "entity Abc { key AbcNo; }\u2028entity Bcd { key BcdNo; }\nentity",
    "entity Abc { key Abc\ufeffNo; }",
    "\ufeffentity Abc { key AbcNo; }",
    "entity Abc { key Abc1//x\n; }",
    "entity Abc { key AbcNo; }\n12//c\nentity Bcd { key BcdNo; }",
]


def colliding_texts():
    rng = random.Random(6)
    return [colliding_text(rng) for _ in range(300)]


def repeating_texts():
    rng = random.Random(26)
    return [repeating_text(rng) for _ in range(300)]


def mutants(rng: random.Random, bases, count):
    alphabet = "abeiklnotyzANZ01289 \t\r\n{}(),;./_-#\f\v\u00e9\u00b2"
    for _ in range(count):
        text = rng.choice(bases)
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and at < len(text):
            yield text[:at] + text[at + 1:]
        else:
            yield text[:at] + rng.choice(alphabet) + text[at:]


def mutant_texts(company_text):
    rng = random.Random(2)
    bases = [company_text, *_CLEAN_EDGE_TEXTS,
             *(colliding_text(rng) for _ in range(5)),
             *(emit_er(generate_model(seed)) for seed in range(5))]
    return list(mutants(rng, bases, 2000))


def read_both_ways(text):
    """parse_er's answer, and whether the clean tokens were enough.  The
    answer must equal the one read from the positioned lexer's tokens."""
    with mock.patch.object(er_text, "_lex", wraps=er_text._lex) as lex:
        answer = parse_er(text)
    with mock.patch.object(er_text, "_clean_tokens", return_value=None):
        assert answer == parse_er(text), repr(text)
    return answer, not lex.called


def parse_record(text):
    """The text, then the verdict of parse_er with the emitted model, then
    every diagnostic with its line and column."""
    model, diagnostics = parse_er(text, "in.er")
    lines = [repr(text)]
    if model is None:
        lines.append("none")
    else:
        lines += ["model", *(f"  {line}".rstrip() for line in emit_er(model).splitlines())]
    lines += [format_diagnostic(d, "in.er") for d in diagnostics]
    return "\n".join(lines)


def golden_diagnostics(company_text):
    """The contents of golden/er_diagnostics.txt: every edge text in full, and
    the generated texts as one sha256 per block of 100 records."""
    records = [parse_record(text) for text in _CLEAN_EDGE_TEXTS + _POSITIONED_EDGE_TEXTS]
    for label, texts in (("colliding", colliding_texts()),
                         ("repeating", repeating_texts()),
                         ("mutants", mutant_texts(company_text))):
        for start in range(0, len(texts), 100):
            block = "\n\n".join(parse_record(text) for text in texts[start:start + 100])
            digest = hashlib.sha256(block.encode("utf-8")).hexdigest()
            records.append(f"{label} {start}-{start + 99} sha256 {digest}")
    return "\n\n".join(records) + "\n"


class TestGoldenDiagnostics:
    def test_verdicts_and_diagnostics_match_the_golden_file(self, company_text):
        expected = golden_path("er_diagnostics.txt").read_text(encoding="utf-8")
        assert golden_diagnostics(company_text) == expected


class TestValueOrErrors:
    def test_every_text_reads_to_a_model_or_to_errors(self, company_text):
        # the contract the command-line pipeline relies on
        texts = [*_CLEAN_EDGE_TEXTS, *_POSITIONED_EDGE_TEXTS, *colliding_texts(),
                 *repeating_texts(), *mutant_texts(company_text)]
        verdicts = set()
        for text in texts:
            model, diagnostics = parse_er(text)
            if model is None:
                assert diagnostics, repr(text)
                assert all(d.severity is Severity.ERROR for d in diagnostics), repr(text)
            else:
                assert diagnostics == [], repr(text)
            verdicts.add(model is None)
        assert verdicts == {True, False}


class TestPositionFreeReading:
    def test_clean_text_skips_the_positioned_lexer(self, company_text, monkeypatch):
        calls = []
        real_lex = er_text._lex
        monkeypatch.setattr(er_text, "_lex", lambda text: calls.append(text) or real_lex(text))
        parse_clean(company_text)
        assert calls == []
        model, diagnostics = parse_er("entity Abc { key AbcNo }")
        assert model is None and rule_ids(diagnostics) == ["SYNTAX"]
        assert len(calls) == 1

    def test_emitted_text_reads_alike_without_positions(self, company_text):
        texts = [company_text] + [emit_er(generate_model(seed)) for seed in range(200)]
        for text in texts:
            (model, diagnostics), fast = read_both_ways(text)
            assert fast and model is not None and diagnostics == []

    def test_colliding_names_read_alike(self):
        outcomes = {read_both_ways(text)[1]
                    for text in colliding_texts() + repeating_texts()}
        assert outcomes == {True, False}

    @pytest.mark.parametrize("text", _CLEAN_EDGE_TEXTS)
    def test_clean_edge_texts_read_alike_without_positions(self, text):
        (model, diagnostics), fast = read_both_ways(text)
        assert fast and model is not None and diagnostics == []

    @pytest.mark.parametrize("text", _POSITIONED_EDGE_TEXTS)
    def test_other_edge_texts_read_alike_with_positions(self, text):
        assert not read_both_ways(text)[1]

    def test_one_character_mutants_read_alike(self, company_text):
        fast = [read_both_ways(text)[1] for text in mutant_texts(company_text)]
        assert 0 < sum(fast) < len(fast)
