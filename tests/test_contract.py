"""The CLI's wire contract on generated documents.

Valid ``param-to-rho`` and ``rho-to-param`` documents are mutated (special
floats, huge and 64-bit-edge integers, bools, strings, nulls, wrong nesting
and deleted keys) and run through ``cli.main`` in process.  Every run must
exit 0, 2 or 4, and every nonzero exit must write a typed error document;
an exception escaping ``main`` fails the test with its traceback.
"""

import contextlib
import copy
import io
import json
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flagparam import cli
from flagparam.density import parametrize
from flagparam.iojson import matrix_to_json, params_to_json
from flagparam.sampling import random_density_parameters

BAD_VALUES = [
    math.nan, math.inf, -math.inf, 1e30, -1e30, 1e300, 2**63, -(2**63), 2**63 - 1, 10**400,
    True, False, "1", "x", "", None, [], {}, 0, -1, 1.5, [[1.0]], [1.0, 2.0],
]
OPERATIONS = ["replace", "delete", "wrap", "unwrap"]


def run_cli(subcommand, text):
    """(exit status, stdout) of ``flagparam <subcommand>`` on ``text``, in this process."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main([subcommand])
    finally:
        sys.stdin = stdin
    return status, out.getvalue()


def node_paths(doc, path=()):
    """The path (keys and indices) of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from node_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from node_paths(value, path + (i,))


def mutate(doc, path, operation, value):
    """``doc`` with one node changed; the root can only be replaced or wrapped."""
    if not path:
        return [doc] if operation == "wrap" else value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last, node = path[-1], parent[path[-1]]
    if operation == "delete":
        del parent[last]
    elif operation == "wrap":
        parent[last] = [node]
    elif operation == "unwrap" and isinstance(node, list) and node:
        parent[last] = node[0]
    else:
        parent[last] = value
    return doc


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        operation = draw(st.sampled_from(OPERATIONS))
        doc = mutate(doc, path, operation, copy.deepcopy(draw(st.sampled_from(BAD_VALUES))))
    return doc


def valid_params(profile, seed):
    return random_density_parameters(profile, np.random.default_rng(seed))


PARAM_DOCS = [params_to_json(valid_params(p, s)) for p, s in [((2, 1, 1), 1), ((1, 2), 2)]]
RHO_DOCS = [matrix_to_json(parametrize(valid_params(p, s))) for p, s in [((1, 1, 1), 3), ((2, 1), 4)]]


def check_contract(subcommand, doc):
    # json.dumps writes NaN and Infinity, which the CLI's parser reads back
    status, out = run_cli(subcommand, json.dumps(doc))
    assert status in {0, 2, 4}, out
    result = json.loads(out)
    if status:
        assert isinstance(result["error"]["code"], str) and result["error"]["code"]
    else:
        assert "error" not in result


class TestWireContract:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(PARAM_DOCS).flatmap(mutated))
    def test_param_to_rho(self, doc):
        check_contract("param-to-rho", doc)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(RHO_DOCS).flatmap(mutated))
    def test_rho_to_param(self, doc):
        check_contract("rho-to-param", doc)

    def test_unmutated_documents_pass(self):
        for doc in PARAM_DOCS:
            assert run_cli("param-to-rho", json.dumps(doc))[0] == 0
        for doc in RHO_DOCS:
            assert run_cli("rho-to-param", json.dumps(doc))[0] == 0

    # cases the generated runs found; each exited 2 with a typed code, but
    # only after numpy had printed a RuntimeWarning on the way

    def test_infinite_imaginary_part(self):
        # re + 1j * im with an infinite im entry made nan + inf j
        doc = copy.deepcopy(RHO_DOCS[0])
        doc["im"][0][0] = math.inf
        status, out = run_cli("rho-to-param", json.dumps(doc))
        assert (status, json.loads(out)["error"]["code"]) == (2, "NOT_FINITE")

    def test_entry_overflowing_the_hermiticity_norm(self):
        # the Frobenius norm of rho - rho* overflowed at an entry of 1e300
        doc = copy.deepcopy(RHO_DOCS[0])
        doc["re"][0][1] = 1e300
        status, out = run_cli("rho-to-param", json.dumps(doc))
        assert (status, json.loads(out)["error"]["code"]) == (2, "NOT_HERMITIAN")
