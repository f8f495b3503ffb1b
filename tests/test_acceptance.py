"""Acceptance gate: one numbered pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from er2rds import (
    RelationKind,
    Severity,
    TransformConfig,
    classify_relations,
    emit_er,
    emit_rds,
    parse_er,
    parse_rds,
    render_ddl,
    reverse_transform,
    transform_model,
    validate_notation,
)
from er2rds.cli import main
from genmodels import generate_model, sog_configs


def _report(number: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict}: {description}")


def _configs(model) -> list[TransformConfig]:
    explicit = [TransformConfig(sog_choice=dict(mapping))
                for mapping in sog_configs(model) if mapping]
    return [TransformConfig(), *explicit, TransformConfig(prefer_regular=True)]


@pytest.fixture(scope="module")
def corpus():
    return [generate_model(seed) for seed in range(500)]


def test_criterion_1_golden_forward_transformation(company_model,
                                                   company_rds_text):
    start = time.perf_counter()
    schema, _ = transform_model(company_model)
    elapsed = time.perf_counter() - start
    emitted = emit_rds(schema)
    ok = emitted == company_rds_text and elapsed < 1.0
    _report(1, "forward transformation reproduces the golden schema byte for"
               f" byte in {elapsed * 1000.0:.0f} ms", ok)
    assert emitted == company_rds_text
    assert elapsed < 1.0


def test_criterion_2_intermediate_state_fidelity(company_model):
    _, trace = transform_model(company_model)

    employee = "Employee[_EmpNo_, Name, Address, Salary]"
    department = "Department[_DepNo_, _Name_, Field]"
    project = "Project[_ProNo_, Name, Description]"
    project_fk = "Project[_ProNo_, Name, Description, DepNo(Controls, 1, 1, n)]"
    engineer = "Engineer[_EmpNo_, Grade]"
    engineer_fk = "Engineer[_EmpNo_, Grade, ProNo(Consult, 1, 1, 1), Hours]"
    department_fk = ("Department[_DepNo_, _Name_, Field,"
                     " Manager-EmpNo(Manages, 1, 1, 1), StartDate]")
    location = "Location[_DepNo_, _Location_]"
    dependent = "Dependent[_EmpNo_, _Name_, Sex, Relation]"

    expected = [
        ("REG", "Employee", (employee,)),
        ("REG", "Department", (employee, department)),
        ("REG", "Project", (employee, department, project)),
        ("SUB", "Engineer", (employee, department, project, engineer)),
        ("GNG", "Controls", (employee, department, project_fk, engineer)),
        ("SOG", "Manages", (employee, project_fk, engineer, department_fk)),
        ("SOG", "Consult", (employee, project_fk, engineer_fk, department_fk)),
        ("MVA", "Department.Location",
         (employee, project_fk, engineer_fk, department_fk, location)),
        ("WAK", "Dependent",
         (employee, project_fk, engineer_fk, department_fk, location,
          dependent)),
    ]
    observed = [(entry.step, entry.subject, entry.schema_after)
                for entry in trace]
    ok = observed == expected
    _report(2, "every transformation step leaves the schema in its expected"
               " intermediate state", ok)
    assert observed == expected


def test_criterion_3_variant_side_choice(company_model, variant_rds_text):
    cfg = TransformConfig(sog_choice={"Consult": "Project"})
    schema, _ = transform_model(company_model, cfg)
    emitted = emit_rds(schema)
    ok = emitted == variant_rds_text
    _report(3, "choosing Project as the Consult side reproduces the variant"
               " golden schema byte for byte", ok)
    assert emitted == variant_rds_text


def test_criterion_4_reverse_classification(company_schema):
    kinds, _, _ = classify_relations(company_schema)
    expected_kinds = {
        "Employee": RelationKind.REGULAR_ENTITY,
        "Project": RelationKind.REGULAR_ENTITY,
        "Department": RelationKind.REGULAR_ENTITY,
        "Engineer": RelationKind.SUBTYPE,
        "Location": RelationKind.MULTIVALUED,
        "Dependent": RelationKind.WEAK,
    }
    model, _ = reverse_transform(company_schema)
    manager = None
    if model is not None:
        manager = next((s for s in model.subtypes if s.name == "Manager"), None)
    ok = (kinds == expected_kinds
          and manager is not None
          and manager.supertype == "Employee"
          and manager.attributes == ())
    _report(4, "reverse classification sorts the golden relations correctly"
               " and resurrects the Manager subtype from its key prefix", ok)
    assert kinds == expected_kinds
    assert manager is not None
    assert manager.supertype == "Employee"
    assert manager.attributes == ()


def test_criterion_5_round_trip_property_suite(corpus, tmp_path):
    start = time.perf_counter()
    trips = 0
    failures = []
    for index, model in enumerate(corpus):
        source = tmp_path / f"model{index}.er"
        source.write_text(emit_er(model), encoding="utf-8")
        variants = [[]]
        variants += [
            [f"--sog-choice={rel}={side}" for rel, side in mapping.items()]
            for mapping in sog_configs(model) if mapping
        ]
        variants.append(["--prefer-regular"])
        for extra in variants:
            trips += 1
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main(["roundtrip", str(source), *extra])
            if code != 0:
                failures.append((index, extra, code))
    elapsed = time.perf_counter() - start
    ok = not failures and len(corpus) >= 500 and elapsed < 10.0
    _report(5, f"{trips} round trips over {len(corpus)} generated models all"
               f" exit 0 in {elapsed:.1f} s", ok)
    assert failures == []
    assert len(corpus) >= 500
    assert elapsed < 10.0


def test_criterion_6_validator_catalog(company_model):
    def error_ids(text):
        model, parse_diagnostics = parse_er(text, "fixture.er")
        found = list(parse_diagnostics)
        if model is not None:
            found += validate_notation(model)
        return [d.rule_id for d in found if d.severity is Severity.ERROR]

    fixtures = {
        "R2.4.2": "entity Employee { key SSN; }",
        "R2.5.1": "entity employee { key EmpNo; }",
        "R2.5.2": "entity Start_Date { key StaNo; }",
        "R2.2.1-I": "entity Employee { key EmpNo; }\n"
                    "subtype Manager of Employee { }",
        "SUBSET": "entity Alpha { key AlpNo; }\n"
                  "entity Bravo { key BraNo; }\n"
                  "rel Grove (Alpha 1..n, Bravo 0..n) { }",
    }
    rejections = {rule: error_ids(text) for rule, text in fixtures.items()}
    company_findings = validate_notation(company_model)
    ok = (all(ids == [rule] for rule, ids in rejections.items())
          and company_findings == [])
    _report(6, "each validation rule rejects its minimal fixture with exactly"
               " its own rule id and the company model validates clean", ok)
    for rule, ids in rejections.items():
        assert ids == [rule]
    assert company_findings == []


def test_criterion_7_format_identities(corpus):
    model_failures = 0
    schema_failures = 0
    schemas = 0
    for model in corpus:
        source = emit_er(model)
        reparsed, diagnostics = parse_er(source, "generated.er")
        if diagnostics or reparsed is None or emit_er(reparsed) != source:
            model_failures += 1
        for cfg in _configs(model):
            schema, _ = transform_model(model, cfg)
            emitted = emit_rds(schema)
            schemas += 1
            rescanned, schema_diagnostics = parse_rds(emitted, "generated.rds")
            if (schema_diagnostics or rescanned is None
                    or emit_rds(rescanned) != emitted):
                schema_failures += 1
    ok = model_failures == 0 and schema_failures == 0
    _report(7, f"parse then emit is the identity on {len(corpus)} generated"
               f" models and {schemas} emitted schemas", ok)
    assert model_failures == 0
    assert schema_failures == 0


def test_criterion_8_structural_ddl(company_schema):
    sql, diagnostics = render_ddl(company_schema)
    statements = {}
    for statement in sql.split("\n\n"):
        name = statement.split("CREATE TABLE ", 1)[1].split(" (", 1)[0]
        statements[name] = statement
    ok = (not diagnostics
          and "PRIMARY KEY (DepNo, Location)" in statements["Location"]
          and "PRIMARY KEY (EmpNo, Name)" in statements["Dependent"]
          and ("FOREIGN KEY (DepNo) REFERENCES Department (DepNo)"
               in statements["Location"]))
    _report(8, "DDL declares composite primary keys for Location and Dependent"
               " and a Location foreign key into Department", ok)
    assert not diagnostics
    assert "PRIMARY KEY (DepNo, Location)" in statements["Location"]
    assert "PRIMARY KEY (EmpNo, Name)" in statements["Dependent"]
    assert ("FOREIGN KEY (DepNo) REFERENCES Department (DepNo)"
            in statements["Location"])
