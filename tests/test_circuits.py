import tracemalloc

import numpy as np
import pytest

from qcb import circuits
from qcb.circuits import (
    CircuitConfig,
    CircuitFamily,
    CorrelationGraph,
    CostHamiltonian,
    ExpressibilityResult,
    apply_vqc_layers,
    build_correlation_graph,
    build_cost_hamiltonian,
    build_feature_map,
    build_qaoa_circuit,
    build_vqc_circuit,
    circuit_depth,
    entanglement_pairs,
    expressibility,
    param_count,
    spearman,
    spearman_detailed,
    vqc_trainable_gates,
)
from qcb.errors import ConfigurationError, UsageError
from qcb.qsim import GateKind

from oracles import dense_simulate, loop_average_ranks, plus_state, rank_then_pearson


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_monotone_decreasing(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_ties_match_rank_then_pearson_oracle(self):
        x = [1, 2, 2, 4]
        y = [1, 3, 2, 4]
        assert abs(spearman(x, y) - rank_then_pearson(x, y)) < 1e-12

    def test_random_vectors_with_ties_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
            y = rng.integers(0, 6, size=n).astype(float)
            ours = spearman(x, y)
            assert abs(ours - rank_then_pearson(x, y)) < 1e-12

    def test_no_ties_matches_classic_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 30))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            dx = np.argsort(np.argsort(x)) - np.argsort(np.argsort(y))
            classic = 1 - 6 * np.sum(dx.astype(float) ** 2) / (n * (n**2 - 1))
            assert abs(spearman(x, y) - classic) < 1e-12

    def test_degenerate_input_flagged(self):
        result = spearman_detailed([1, 1, 1], [1, 2, 3])
        assert result.rho == 0.0
        assert result.degenerate

    def test_errors(self):
        with pytest.raises(UsageError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(UsageError):
            spearman([1], [2])


def _rank_vectors() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    many_nans = rng.integers(0, 5, size=1000).astype(float)
    many_nans[rng.random(1000) < 0.3] = np.nan
    many_nans[rng.random(1000) < 0.1] = -0.0
    return {
        "ties": np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0]),
        "several_nans": np.array([2.0, np.nan, 1.0, np.nan, 2.0, np.nan, 0.5]),
        "signed_zeros": np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]),
        "constant": np.full(7, 4.25),
        "all_nan": np.full(4, np.nan),
        "one": np.array([5.0]),
        "random_ties": rng.integers(0, 6, size=200).astype(float),
        "many_nans": many_nans,
    }


class TestAverageRanks:
    @pytest.mark.parametrize("name", sorted(_rank_vectors()))
    def test_equals_the_loop(self, name):
        values = _rank_vectors()[name]
        assert circuits._average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()

    def test_graph_is_spearman_of_each_pair(self):
        rng = np.random.default_rng(32)
        X = rng.integers(0, 4, size=(30, 6)).astype(float)
        X[:, 1] = 2.5  # constant
        X[::4, 2] = np.nan
        X[:, 3] = np.where(X[:, 3] == 0.0, -0.0, X[:, 3])
        X[:, 4] = np.nan
        graph = build_correlation_graph(X, threshold=0.1)
        for i in range(6):
            for j in range(6):
                want = 1.0 if i == j else spearman_detailed(X[:, i], X[:, j]).rho
                assert graph.rho[i, j].tobytes() == np.float64(want).tobytes()
        assert graph.degenerate_features == (1,)


class TestCorrelationGraph:
    def test_identical_features_pair(self):
        x = np.arange(10, dtype=float)
        graph = build_correlation_graph(np.column_stack([x, x]))
        assert graph.pairs == ((0, 1, 1.0),)

    def test_independent_features_no_pair(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(200, 2))
        graph = build_correlation_graph(X)
        assert abs(graph.rho[0, 1]) < 0.5
        assert graph.pairs == ()

    def test_anticorrelated_pair(self):
        rng = np.random.default_rng(3)
        f0 = rng.normal(size=50)
        f1 = rng.normal(size=50)
        X = np.column_stack([f0, f1, -f0])
        graph = build_correlation_graph(X)
        assert (0, 2, -1.0) in graph.pairs

    def test_pairs_match_brute_force_threshold_scan(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=60)
        X = np.column_stack(
            [
                base,
                base + 0.1 * rng.normal(size=60),
                rng.normal(size=60),
                -base + 0.2 * rng.normal(size=60),
                rng.normal(size=60),
            ]
        )
        graph = build_correlation_graph(X, threshold=0.5)
        expected = set()
        for i in range(5):
            for j in range(i + 1, 5):
                r = rank_then_pearson(X[:, i], X[:, j])
                if abs(r) > 0.5:
                    expected.add((i, j))
        assert {(i, j) for i, j, _ in graph.pairs} == expected
        strengths = [abs(r) for _, _, r in graph.pairs]
        assert strengths == sorted(strengths, reverse=True)

    def test_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 4))
        graph = build_correlation_graph(X)
        assert np.allclose(graph.rho, graph.rho.T)
        assert np.allclose(np.diag(graph.rho), 1.0)

    def test_degenerate_feature_excluded(self):
        X = np.column_stack([np.arange(20.0), np.full(20, 7.0)])
        graph = build_correlation_graph(X)
        assert graph.pairs == ()
        assert graph.degenerate_features == (1,)

    def test_too_small_inputs(self):
        with pytest.raises(UsageError):
            build_correlation_graph(np.zeros((1, 3)))
        with pytest.raises(UsageError):
            build_correlation_graph(np.zeros((10, 1)))


def _graph_with_pairs(n_features, pairs):
    rho = np.eye(n_features)
    for i, j, w in pairs:
        rho[i, j] = rho[j, i] = w
    return CorrelationGraph(n_features=n_features, rho=rho, pairs=tuple(pairs))


class TestVqcCircuit:
    def test_structure_two_qubits_with_pair(self):
        graph = _graph_with_pairs(2, [(0, 1, 0.9)])
        config = CircuitConfig(CircuitFamily.VQC, 2, 1, graph)
        gates = build_vqc_circuit(config, [0.3, 0.7], [0.1, 0.2])
        kinds = [(g.kind, g.targets) for g in gates]
        assert kinds == [
            (GateKind.RY, (0,)),
            (GateKind.RY, (1,)),
            (GateKind.RY, (0,)),
            (GateKind.RY, (1,)),
            (GateKind.CNOT, (0, 1)),
        ]
        assert gates[0].angle == 0.3
        assert gates[2].angle == 0.1

    def test_empty_pair_set_falls_back_to_ladder(self):
        config = CircuitConfig(CircuitFamily.VQC, 2, 1)
        gates = build_vqc_circuit(config, [0.0, 0.0], [0.0, 0.0])
        assert (gates[-1].kind, gates[-1].targets) == (GateKind.CNOT, (0, 1))

    def test_gate_count_two_layers(self):
        graph = _graph_with_pairs(4, [(0, 2, 0.8), (1, 3, -0.6)])
        config = CircuitConfig(CircuitFamily.VQC, 4, 2, graph)
        gates = build_vqc_circuit(config, np.zeros(4), np.zeros(8))
        # encoding + per-layer rotations + layer-0 pairs + ladder
        assert len(gates) == 4 + 8 + 2 + 3

    def test_correlation_pairs_truncated_to_register(self):
        graph = _graph_with_pairs(6, [(0, 5, 0.9), (1, 2, 0.7)])
        config = CircuitConfig(CircuitFamily.VQC, 4, 1, graph)
        gates = build_vqc_circuit(config, np.zeros(4), np.zeros(4))
        cnots = [g.targets for g in gates if g.kind is GateKind.CNOT]
        assert cnots == [(1, 2)]

    def test_layer0_has_only_correlation_pairs(self):
        graph = _graph_with_pairs(4, [(0, 3, 0.9)])
        config = CircuitConfig(CircuitFamily.VQC, 4, 2, graph)
        gates = build_vqc_circuit(config, np.zeros(4), np.zeros(8))
        cnots = [g.targets for g in gates if g.kind is GateKind.CNOT]
        assert cnots[0] == (0, 3)
        assert cnots[1:] == [(0, 1), (1, 2), (2, 3)]

    def test_dimension_mismatches(self):
        config = CircuitConfig(CircuitFamily.VQC, 2, 1)
        with pytest.raises(UsageError):
            build_vqc_circuit(config, [0.0], np.zeros(2))
        with pytest.raises(UsageError):
            build_vqc_circuit(config, [0.0, 0.0], np.zeros(3))


class TestQaoaCircuit:
    def test_zero_angles_keep_plus_state(self):
        graph = _graph_with_pairs(3, [(0, 1, 0.8)])
        config = CircuitConfig(CircuitFamily.QAOA, 3, 2, graph)
        h = build_cost_hamiltonian(graph, [0.4, 0.5, 0.6])
        gates = build_qaoa_circuit(config, h, np.zeros(6), np.zeros(6))
        final = dense_simulate(gates, 3, plus_state(3))
        assert np.allclose(final, plus_state(3), atol=1e-15)

    def test_single_qubit_matches_dense_oracle(self):
        h = CostHamiltonian(zz_terms=(), z_terms=((0, 1.0),))
        config = CircuitConfig(CircuitFamily.QAOA, 1, 1)
        gamma, beta = [0.45], [0.27]
        gates = build_qaoa_circuit(config, h, gamma, beta)
        ours = dense_simulate(gates, 1, plus_state(1))
        # dense chain: exp(-i beta X) exp(-i gamma Z) |+>
        z = np.diag([np.exp(-1j * 0.45), np.exp(1j * 0.45)])
        x = np.array([[np.cos(0.27), -1j * np.sin(0.27)], [-1j * np.sin(0.27), np.cos(0.27)]])
        expected = x @ z @ plus_state(1)
        assert np.allclose(ours, expected, atol=1e-12)

    def test_two_qubit_zz_matches_dense_oracle(self):
        graph = _graph_with_pairs(2, [(0, 1, 1.0)])
        config = CircuitConfig(CircuitFamily.QAOA, 2, 1, graph)
        h = CostHamiltonian(zz_terms=((0, 1, 1.0),), z_terms=((0, 0.2), (1, -0.4)))
        gamma = np.array([0.3, 0.3])
        beta = np.array([0.3, 0.3])
        gates = build_qaoa_circuit(config, h, gamma, beta)
        ours = dense_simulate(gates, 2, plus_state(2))
        # exp(-i beta X) on both qubits after the cost phase
        # exp(-i gamma (w Z0 Z1 + h0 Z0 + h1 Z1)), written out per basis state
        bits = np.arange(4)
        z0, z1 = 1 - 2 * (bits & 1), 1 - 2 * ((bits >> 1) & 1)
        cost = np.exp(-1j * 0.3 * (1.0 * z0 * z1 + 0.2 * z0 - 0.4 * z1))
        m = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
        expected = np.kron(m, m) @ (cost * plus_state(2))
        assert np.allclose(ours, expected, atol=1e-10)

    def test_zz_angle_uses_lower_qubit_gamma(self):
        graph = _graph_with_pairs(3, [(1, 2, 0.9)])
        config = CircuitConfig(CircuitFamily.QAOA, 3, 1, graph)
        h = CostHamiltonian(zz_terms=((1, 2, 0.9),), z_terms=())
        gamma = np.array([0.1, 0.2, 0.3])
        gates = build_qaoa_circuit(config, h, gamma, np.zeros(3))
        zz = [g for g in gates if g.kind is GateKind.ZZPHASE][0]
        assert abs(zz.angle - 0.2 * 0.9) < 1e-15

    def test_empty_hamiltonian_is_mixer_only(self):
        config = CircuitConfig(CircuitFamily.QAOA, 2, 1)
        gates = build_qaoa_circuit(config, CostHamiltonian((), ()), np.zeros(2), np.zeros(2))
        assert all(g.kind is GateKind.XMIXER for g in gates)
        assert len(gates) == 2

    def test_length_validation(self):
        config = CircuitConfig(CircuitFamily.QAOA, 2, 2)
        h = CostHamiltonian((), ())
        with pytest.raises(UsageError):
            build_qaoa_circuit(config, h, np.zeros(2), np.zeros(4))


class TestFeatureMap:
    def test_single_qubit_zero_input_gives_plus(self):
        gates = build_feature_map([0.0])
        state = dense_simulate(gates, 1)
        assert np.allclose(state, plus_state(1))

    def test_single_qubit_kernel_is_cos_squared(self):
        for x, xp in [(0.0, np.pi / 2), (0.3, 1.1), (1.0, 2.5)]:
            a = dense_simulate(build_feature_map([x]), 1)
            b = dense_simulate(build_feature_map([xp]), 1)
            assert abs(abs(np.vdot(a, b)) ** 2 - np.cos(x - xp) ** 2) < 1e-12

    def test_two_qubit_zero_input_uniform(self):
        state = dense_simulate(build_feature_map([0.0, 0.0]), 2)
        assert np.allclose(state, [0.5, 0.5, 0.5, 0.5])

    def test_structure(self):
        gates = build_feature_map([0.1, 0.2, 0.3])
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.H] * 3 + [GateKind.RZ] * 3 + [GateKind.ZZPHASE] * 3
        zz = [g for g in gates if g.kind is GateKind.ZZPHASE]
        assert [g.targets for g in zz] == [(0, 1), (0, 2), (1, 2)]
        assert abs(zz[0].angle - 0.1 * 0.2) < 1e-15


class TestResourceMetrics:
    def test_depth_empty(self):
        # a zero-layer ansatz is its encoding alone
        config = CircuitConfig(CircuitFamily.VQC, 3, 0)
        assert circuit_depth(config) == len(build_vqc_circuit(config, np.zeros(3), [])) == 3

    def test_depth_vqc_ladder_only(self):
        config = CircuitConfig(CircuitFamily.VQC, 4, 2)
        gates = build_vqc_circuit(config, np.zeros(4), np.zeros(8))
        assert circuit_depth(config) == len(gates) == 4 + 8 + 3 + 3 == 18

    def test_depth_qaoa(self):
        graph = _graph_with_pairs(4, [(0, 1, 0.7), (1, 2, 0.6), (2, 3, 0.9)])
        config = CircuitConfig(CircuitFamily.QAOA, 4, 2, graph)
        h = build_cost_hamiltonian(graph, np.zeros(4))
        gates = build_qaoa_circuit(config, h, np.zeros(8), np.zeros(8))
        assert circuit_depth(config, h) == len(gates) == 2 * (3 + 4 + 4) == 22
        with pytest.raises(UsageError):
            circuit_depth(config)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_depth_closed_form_matches_builders(self, n):
        rng = np.random.default_rng(n)
        # a dense graph: its pairs are not the ladder, and drive VQC layer 0 and the ZZ terms
        base = rng.normal(size=(30, 1))
        graphs = [None]
        if n > 1:
            graphs.append(build_correlation_graph(base + 0.3 * rng.normal(size=(30, n))))
            assert len(graphs[1].pairs) == n * (n - 1) // 2
        for correlation in graphs:
            for layers in range(4):
                vqc = CircuitConfig(CircuitFamily.VQC, n, layers, correlation)
                gates = build_vqc_circuit(vqc, np.zeros(n), np.zeros(n * layers))
                assert circuit_depth(vqc) == len(gates)
                if layers == 0:
                    continue
                qaoa = CircuitConfig(CircuitFamily.QAOA, n, layers, correlation)
                if correlation is None:
                    h = CostHamiltonian(zz_terms=(), z_terms=tuple((q, 0.5) for q in range(n)))
                else:
                    h = build_cost_hamiltonian(correlation, np.zeros(n))
                angles = np.zeros(n * layers)
                assert circuit_depth(qaoa, h) == len(build_qaoa_circuit(qaoa, h, angles, angles))
        feature_map = CircuitConfig(CircuitFamily.FEATURE_MAP, n, 1)
        assert circuit_depth(feature_map) == len(build_feature_map(np.zeros(n)))

    def test_param_counts_match_configurations(self):
        assert param_count(CircuitConfig(CircuitFamily.VQC, 4, 2)) == 8
        assert param_count(CircuitConfig(CircuitFamily.VQC, 6, 3)) == 18
        assert param_count(CircuitConfig(CircuitFamily.QAOA, 4, 2)) == 16
        assert param_count(CircuitConfig(CircuitFamily.QAOA, 6, 3)) == 36
        assert param_count(CircuitConfig(CircuitFamily.FEATURE_MAP, 4, 1)) == 0

    def test_param_count_matches_builder_accepted_length(self):
        for n, layers in [(4, 2), (4, 3), (6, 2), (6, 3)]:
            vqc = CircuitConfig(CircuitFamily.VQC, n, layers)
            build_vqc_circuit(vqc, np.zeros(n), np.zeros(param_count(vqc)))
            qaoa = CircuitConfig(CircuitFamily.QAOA, n, layers)
            h = CostHamiltonian((), tuple((i, 0.1) for i in range(n)))
            k = param_count(qaoa)
            build_qaoa_circuit(qaoa, h, np.zeros(k // 2), np.zeros(k // 2))


class TestConfigValidation:
    def test_qubit_bounds(self):
        with pytest.raises(ConfigurationError):
            CircuitConfig(CircuitFamily.VQC, 0, 1)
        with pytest.raises(ConfigurationError):
            CircuitConfig(CircuitFamily.VQC, 13, 1)

    def test_layer_bounds(self):
        with pytest.raises(ConfigurationError):
            CircuitConfig(CircuitFamily.QAOA, 2, 0)
        with pytest.raises(ConfigurationError):
            CircuitConfig(CircuitFamily.VQC, 2, -1)

    def test_correlation_needs_two_qubits(self):
        graph = _graph_with_pairs(2, [(0, 1, 0.9)])
        with pytest.raises(ConfigurationError):
            CircuitConfig(CircuitFamily.VQC, 1, 1, graph)


class TestExpressibility:
    def test_zero_parameter_circuit_scores_near_zero(self):
        config = CircuitConfig(CircuitFamily.VQC, 3, 0)
        result = expressibility(config, 500, seed=1)
        assert result.score < 0.05

    def test_deterministic_under_seed(self):
        config = CircuitConfig(CircuitFamily.VQC, 3, 2)
        a = expressibility(config, 300, seed=5)
        b = expressibility(config, 300, seed=5)
        assert a == b

    def test_monotone_in_layers(self):
        scores = []
        for layers in (1, 2, 3):
            config = CircuitConfig(CircuitFamily.VQC, 4, layers)
            scores.append(expressibility(config, 5000, seed=0).score)
        assert scores[0] < scores[1] < scores[2]

    @pytest.mark.parametrize(
        "layers,kl",
        [(1, 0.7209816945913271), (2, 0.2251468110387237), (3, 0.18842418822576595)],
    )
    def test_kl_divergence_pinned(self, layers, kl):
        # exact: a fidelity that moves across a bin edge changes the divergence
        config = CircuitConfig(CircuitFamily.VQC, 4, layers)
        assert expressibility(config, 5000, seed=0).kl_divergence == kl

    def test_low_precision_flag(self):
        config = CircuitConfig(CircuitFamily.VQC, 2, 1)
        assert expressibility(config, 50, seed=0).low_precision
        assert not expressibility(config, 200, seed=0).low_precision

    def test_requires_vqc_family(self):
        config = CircuitConfig(CircuitFamily.QAOA, 2, 1)
        with pytest.raises(UsageError):
            expressibility(config, 200, seed=0)

    @pytest.mark.parametrize("n_qubits,layers,n_pairs", [(4, 3, 5000), (6, 2, 1000)])
    def test_blocks_of_pairs_give_the_same_result(self, monkeypatch, n_qubits, layers, n_pairs):
        config = CircuitConfig(CircuitFamily.VQC, n_qubits, layers)
        whole = expressibility(config, n_pairs, seed=0)
        monkeypatch.setattr(circuits, "EXPRESSIBILITY_BLOCK_PAIRS", 7)
        assert expressibility(config, n_pairs, seed=0) == whole

    def test_memory_is_bounded_by_blocks(self):
        # 10 qubits x 2,000 pairs: about 16 MiB when measured; the 4,000
        # state columns at once would take more than 300 MiB
        config = CircuitConfig(CircuitFamily.VQC, 10, 2)
        tracemalloc.start()
        try:
            expressibility(config, 2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 1024 * 1024


class TestVqcLayerLoop:
    @pytest.mark.parametrize("with_graph", [True, False])
    def test_per_column_angles_equal_dense_gate_lists(self, with_graph):
        rng = np.random.default_rng(71 + with_graph)
        graph = _graph_with_pairs(4, [(0, 3, 0.9), (1, 2, -0.8)]) if with_graph else None
        config = CircuitConfig(CircuitFamily.VQC, 4, 3, graph)
        cols = rng.normal(size=(16, 5))
        thetas = rng.uniform(0, 2 * np.pi, size=(12, 5))
        out = apply_vqc_layers(config, cols, thetas)
        for c in range(5):
            gates = vqc_trainable_gates(config, thetas[:, c])
            expected = dense_simulate(gates, 4, cols[:, c])
            assert np.max(np.abs(out[:, c] - expected)) < 1e-12


class TestEntanglementTargeting:
    def test_every_surviving_pair_used_in_both_families(self):
        rng = np.random.default_rng(33)
        base = rng.normal(size=80)
        X = np.column_stack(
            [base, base + 0.05 * rng.normal(size=80), rng.normal(size=80), -base]
        )
        graph = build_correlation_graph(X)
        assert graph.pairs  # construction guarantees correlated columns
        config = CircuitConfig(CircuitFamily.VQC, 4, 2, graph)
        gates = build_vqc_circuit(config, np.zeros(4), np.zeros(8))
        layer0_cnots = {g.targets for g in gates[: 4 + 4 + len(graph.pairs)] if g.kind is GateKind.CNOT}
        assert layer0_cnots == {(i, j) for i, j, _ in graph.pairs}
        h = build_cost_hamiltonian(graph, X.mean(axis=0))
        assert {(i, j) for i, j, _ in h.zz_terms} == {(i, j) for i, j, _ in graph.pairs}
        assert [i for i, _ in h.z_terms] == [0, 1, 2, 3]
