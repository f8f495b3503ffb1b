import pathlib

import pytest

from er2rds import emit_rds, parse_er, parse_rds

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / name


def named(elements, name: str):
    """The first of ``elements`` (an element tuple of a model) called
    ``name``, or None."""
    return next((element for element in elements if element.name == name), None)


def assert_well_formed(schema) -> None:
    """The schema reads back from its own text unchanged and without a
    diagnostic, and each relation leads with all of its underlined
    attributes."""
    assert parse_rds(emit_rds(schema)) == (schema, [])
    for relation in schema.relations:
        underlined = [a.underlined for a in relation.attributes]
        assert underlined[0] and underlined == sorted(underlined, reverse=True), \
            relation.name


@pytest.fixture(scope="session")
def company_text() -> str:
    return golden_path("company.er").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def company_model(company_text):
    model, diagnostics = parse_er(company_text, "company.er")
    assert model is not None and not diagnostics
    return model


@pytest.fixture(scope="session")
def company_rds_text() -> str:
    return golden_path("company.rds").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def variant_rds_text() -> str:
    return golden_path("company_consult_project.rds").read_text(encoding="utf-8")


@pytest.fixture
def company_schema(company_rds_text):
    # function scoped: schemas are mutable
    schema, diagnostics = parse_rds(company_rds_text, "company.rds")
    assert schema is not None and not diagnostics
    return schema
