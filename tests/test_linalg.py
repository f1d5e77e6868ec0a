import ast
import pathlib

import numpy as np
import pytest

from qubit_reference import embed_operator, kron_all, partial_trace, permute_qubits

from jointcert.postselect import trace_distance
from jointcert.quantum import ID2, PAULIS, PHI_PLUS, PSI_MINUS, proj

RNG = np.random.default_rng(401)


def random_density(n_qubits, rng=RNG):
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_op(n_qubits, rng=RNG):
    dim = 2**n_qubits
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_kron_all_matches_iterated_kron():
    a, b, c = random_op(1), random_op(1), random_op(1)
    np.testing.assert_allclose(kron_all(a, b, c), np.kron(np.kron(a, b), c))
    np.testing.assert_allclose(kron_all(a), a)


def test_permute_reorders_kron_factors():
    ops = [random_op(1) for _ in range(3)]
    full = kron_all(*ops)
    # target order (B, C, A): source qubit at target position i is perm[i]
    perm = [1, 2, 0]
    np.testing.assert_allclose(
        permute_qubits(full, perm), kron_all(ops[1], ops[2], ops[0]), atol=1e-14
    )


def test_permute_inverse_round_trip():
    for _ in range(50):
        op = random_op(3)
        perm = list(RNG.permutation(3))
        inverse = [perm.index(i) for i in range(3)]
        back = permute_qubits(permute_qubits(op, perm), inverse)
        np.testing.assert_allclose(back, op, atol=1e-14)


def test_embed_single_qubit():
    a = random_op(1)
    np.testing.assert_allclose(embed_operator(a, [0], 2), np.kron(a, ID2))
    np.testing.assert_allclose(embed_operator(a, [1], 2), np.kron(ID2, a))


def test_embed_two_qubit_reversed_positions():
    p, q = random_op(1), random_op(1)
    # first factor of the embedded operator lands on qubit 2, second on qubit 0
    embedded = embed_operator(np.kron(p, q), [2, 0], 3)
    np.testing.assert_allclose(embedded, kron_all(q, ID2, p), atol=1e-14)


def test_embedded_operators_on_disjoint_qubits_commute():
    e = random_op(2)
    f = random_op(2)
    a = embed_operator(e, [1, 3], 4)
    b = embed_operator(f, [0, 2], 4)
    np.testing.assert_allclose(a @ b, b @ a, atol=1e-11)


def test_partial_trace_of_product_state():
    rho1, rho2 = random_density(1), random_density(1)
    rho = np.kron(rho1, rho2)
    np.testing.assert_allclose(partial_trace(rho, [0], 2), rho1, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, [1], 2), rho2, atol=1e-14)


def test_partial_trace_against_einsum_oracle():
    for _ in range(200):
        rho = random_density(3)
        t = rho.reshape((2,) * 6)
        # trace out qubit 1: identify row axis 1 with column axis 4
        oracle = np.einsum(t, [0, 6, 2, 3, 6, 5], [0, 2, 3, 5]).reshape(4, 4)
        got = partial_trace(rho, [0, 2], 3)
        np.testing.assert_allclose(got, oracle, atol=1e-14)


def test_partial_trace_properties_random():
    # trace preservation and linearity over many draws
    for _ in range(1000):
        rho = random_density(2)
        sigma = random_density(2)
        w = RNG.random()
        mixed = w * rho + (1 - w) * sigma
        pt = partial_trace(mixed, [0], 2)
        np.testing.assert_allclose(np.trace(pt), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            pt,
            w * partial_trace(rho, [0], 2) + (1 - w) * partial_trace(sigma, [0], 2),
            atol=1e-12,
        )


def test_partial_trace_keep_order():
    rho = random_density(3)
    ab = partial_trace(rho, [0, 1], 3)
    swapped = partial_trace(permute_qubits_density(rho, [1, 0, 2]), [0, 1], 3)
    np.testing.assert_allclose(ab, permute_qubits_density(swapped, [1, 0]), atol=1e-13)


def permute_qubits_density(rho, perm):
    return permute_qubits(rho, list(perm))


def test_trace_distance_extremes():
    z = proj(np.array([1, 0], dtype=complex))
    o = proj(np.array([0, 1], dtype=complex))
    assert trace_distance(z, o) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(z, z) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_against_nuclear_norm():
    for _ in range(100):
        a, b = random_density(2), random_density(2)
        s = np.linalg.svd(a - b, compute_uv=False)
        np.testing.assert_allclose(trace_distance(a, b), 0.5 * s.sum(), atol=1e-12)


def test_bell_states_are_orthonormal():
    np.testing.assert_allclose(np.linalg.norm(PSI_MINUS), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(PHI_PLUS), 1.0, atol=1e-15)
    assert abs(PSI_MINUS.conj() @ PHI_PLUS) < 1e-15


def test_paulis_square_to_identity():
    for sigma in PAULIS:
        np.testing.assert_allclose(sigma @ sigma, ID2, atol=1e-15)


def test_reference_routes_import_nothing_from_jointcert():
    # the reference side of each cross-check must not reach the einsum paths
    path = pathlib.Path(__file__).resolve().parent / "qubit_reference.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert "numpy" in imported
    assert not imported & {"jointcert", "."}, imported
