"""Unit tests for the prefill-assignment type."""

import pytest

from repro.engine.batch import PrefillAssignment
from tests.conftest import make_request


class TestPrefillAssignment:
    def test_valid_assignment(self):
        r = make_request(prompt_tokens=100)
        a = PrefillAssignment(r, 50)
        assert a.tokens == 50

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            PrefillAssignment(make_request(), 0)

    def test_rejects_over_assignment(self):
        r = make_request(prompt_tokens=100)
        r.prefill_done = 80
        with pytest.raises(ValueError):
            PrefillAssignment(r, 30)

    def test_allows_exactly_remaining(self):
        r = make_request(prompt_tokens=100)
        r.prefill_done = 80
        assert PrefillAssignment(r, 20).tokens == 20
