"""Regression tests for the public error contract (RL105's invariant).

Every failure the library raises must be a :class:`repro.errors.ReproError`
subclass, so callers can gate on one except clause.  These tests pin the
behaviour at the API surfaces that used to raise builtins.
"""

from __future__ import annotations

import inspect

import pytest

from repro import errors
from repro.algorithms.base import Mode
from repro.datasets import nasa, xmark
from repro.errors import (
    DatasetError,
    EvaluationError,
    ReproError,
    StorageError,
)
from repro.storage.records import ElementEntry, tuple_codec
from repro.tpq.parser import parse_pattern
from tests.synthetic_lists import admit, buffer_over


def test_every_exported_error_derives_from_repro_error():
    for name, obj in vars(errors).items():
        if inspect.isclass(obj) and issubclass(obj, Exception):
            if obj is ReproError:
                assert issubclass(obj, Exception)
            else:
                assert issubclass(obj, ReproError), name


def test_dataset_generators_raise_dataset_error():
    for generator in (nasa, xmark):
        with pytest.raises(DatasetError) as exc:
            generator.generate(scale=0)
        assert isinstance(exc.value, ReproError)


def test_mode_parse_raises_evaluation_error():
    with pytest.raises(EvaluationError):
        Mode.parse("floppy")
    assert Mode.parse("memory") is Mode.MEMORY
    assert Mode.parse(Mode.DISK) is Mode.DISK


def test_record_codecs_raise_storage_error():
    with pytest.raises(StorageError):
        tuple_codec(0)


def test_dag_buffer_order_violation_raises_evaluation_error():
    buffer = buffer_over(parse_pattern("//a//b"))
    admit(buffer, "a", ElementEntry(10, 20, 1))
    with pytest.raises(EvaluationError):
        admit(buffer, "a", ElementEntry(5, 8, 1))


def test_parser_failures_stay_inside_the_hierarchy():
    with pytest.raises(ReproError):
        parse_pattern("not a pattern !!!")
