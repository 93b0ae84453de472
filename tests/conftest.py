"""Shared fixtures: small random databases used across test modules."""

import numpy as np
import pytest

from repro.data import (
    Column,
    ColumnSchema,
    Database,
    DatabaseSchema,
    DataType,
    JoinRelation,
    Table,
    TableSchema,
)


def build_toy_db(seed=0, n_a=60, n_b=120, n_c=40, with_nulls=False):
    """Three tables, two key groups (A.id group and C.id group), skewed FKs,
    correlated attributes — a miniature of the STATS shape."""
    rng = np.random.default_rng(seed)
    a_id = np.arange(n_a)
    a_x = rng.integers(0, 5, n_a)
    a_y = np.clip(a_x + rng.integers(-1, 2, n_a), 0, 5)  # correlated with x

    b_aid = np.minimum(rng.zipf(1.4, n_b) - 1, n_a - 1)
    b_cid = rng.integers(0, n_c, n_b)
    b_y = rng.integers(0, 4, n_b)
    null_b = (rng.random(n_b) < 0.15) if with_nulls else np.zeros(n_b, bool)

    c_id = np.arange(n_c)
    c_z = rng.integers(0, 3, n_c)

    schema = DatabaseSchema(
        [
            TableSchema("A", [ColumnSchema("id", DataType.INT, True),
                              ColumnSchema("x", DataType.INT),
                              ColumnSchema("y", DataType.INT)]),
            TableSchema("B", [ColumnSchema("aid", DataType.INT, True),
                              ColumnSchema("cid", DataType.INT, True),
                              ColumnSchema("y", DataType.INT)]),
            TableSchema("C", [ColumnSchema("id", DataType.INT, True),
                              ColumnSchema("z", DataType.INT)]),
        ],
        [
            JoinRelation("A", "id", "B", "aid"),
            JoinRelation("B", "cid", "C", "id"),
        ],
    )
    return Database(schema, [
        Table("A", [Column("id", a_id), Column("x", a_x), Column("y", a_y)]),
        Table("B", [Column("aid", b_aid, null_mask=null_b),
                    Column("cid", b_cid), Column("y", b_y)]),
        Table("C", [Column("id", c_id), Column("z", c_z)]),
    ])


def request_count(service, endpoint=("estimate", "subplans")) -> int:
    """How many requests the service's ``repro_request_seconds``
    histogram recorded for ``endpoint`` (a name or a tuple of names)."""
    histogram = service.metrics.histogram("repro_request_seconds")
    return histogram.snapshot({"endpoint": endpoint})[0]


@pytest.fixture
def toy_db():
    return build_toy_db()


@pytest.fixture
def toy_db_nulls():
    return build_toy_db(with_nulls=True)
