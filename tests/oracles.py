"""Independent oracles used to cross-check the production code paths.

Everything here is deliberately written the "slow but obvious" way: explicit
dense matrices built by basis-state enumeration, rank-then-Pearson Spearman,
two-pass variance, and so on.  None of it shares code with src/qcb.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcb.qsim import GateKind, GateOp


def pauli_x(qubit: int) -> GateOp:
    """An X gate on ``qubit``; the program's circuits apply none."""
    return GateOp(GateKind.X, (qubit,))


def dense_gate_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary for one gate, built by basis enumeration."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    kind = gate.kind
    if kind in (GateKind.RY, GateKind.RZ, GateKind.H, GateKind.X, GateKind.XMIXER):
        q = gate.targets[0]
        a = gate.angle
        if kind is GateKind.RY:
            u = np.array(
                [[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]],
                dtype=complex,
            )
        elif kind is GateKind.RZ:
            u = np.array([[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]])
        elif kind is GateKind.H:
            u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        elif kind is GateKind.X:
            u = np.array([[0, 1], [1, 0]], dtype=complex)
        else:  # XMixer = exp(-i a X)
            u = np.array(
                [[np.cos(a), -1j * np.sin(a)], [-1j * np.sin(a), np.cos(a)]]
            )
        for col in range(dim):
            bit = (col >> q) & 1
            for new_bit in (0, 1):
                row = (col & ~(1 << q)) | (new_bit << q)
                mat[row, col] = u[new_bit, bit]
        return mat
    if kind is GateKind.CNOT:
        control, target = gate.targets
        for col in range(dim):
            if (col >> control) & 1:
                mat[col ^ (1 << target), col] = 1.0
            else:
                mat[col, col] = 1.0
        return mat
    if kind is GateKind.ZZPHASE:
        qa, qb = gate.targets
        a = gate.angle
        for col in range(dim):
            z = 1 if ((col >> qa) & 1) == ((col >> qb) & 1) else -1
            mat[col, col] = np.exp(-1j * a * z)
        return mat
    raise AssertionError(f"oracle has no matrix for {kind}")


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0>: amplitude 1 at index 0."""
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def plus_state(n_qubits: int) -> np.ndarray:
    """|+...+>: all 2**n amplitudes equal to 1/sqrt(2**n)."""
    return np.full(2**n_qubits, 1.0 / np.sqrt(2**n_qubits), dtype=complex)


def dense_simulate(gates, n_qubits: int, initial: np.ndarray | None = None) -> np.ndarray:
    """Multiply explicit gate matrices onto an initial vector (default |0...0>)."""
    if initial is None:
        state = zero_state(n_qubits)
    else:
        state = np.asarray(initial, dtype=complex).copy()
    for gate in gates:
        state = dense_gate_matrix(gate, n_qubits) @ state
    return state


def states_match_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """Elementwise equality after removing one global phase."""
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < 1e-12 and abs(b[k]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    if abs(b[k]) < 1e-12:
        return False
    phase = (a[k] / abs(a[k])) / (b[k] / abs(b[k]))
    return bool(np.allclose(a, phase * b, atol=atol))


def x_expectations_by_pairing(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """<X_q> = 2 Re sum over b with bit q clear of conj(a_b) a_(b + 2**q), per qubit.

    Works on one state or a batch of rows; shape ``(..., n_qubits)``.
    """
    amps = np.asarray(amps, dtype=complex)
    dim = amps.shape[-1]
    out = np.empty(amps.shape[:-1] + (n_qubits,))
    for q in range(n_qubits):
        low = np.array([b for b in range(dim) if not (b >> q) & 1])
        pairs = np.conj(amps[..., low]) * amps[..., low + (1 << q)]
        out[..., q] = np.clip(2.0 * np.sum(pairs.real, axis=-1), -1.0, 1.0)
    return out


def kron_chain(factors) -> np.ndarray:
    """factors[-1] (x) ... (x) factors[0] by repeated ``np.kron``: factor q acts on qubit q."""
    m = np.ones((1, 1), dtype=np.asarray(factors[0]).dtype)
    for u in factors:
        m = np.kron(u, m)
    return m


def random_gate(rng: np.random.Generator, n_qubits: int) -> GateOp:
    kinds = list(GateKind)
    kind = kinds[rng.integers(len(kinds))]
    if kind in (GateKind.CNOT, GateKind.ZZPHASE):
        qa, qb = rng.choice(n_qubits, size=2, replace=False)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        if kind is GateKind.CNOT:
            return GateOp(kind, (int(qa), int(qb)))
        return GateOp(kind, (int(qa), int(qb)), angle)
    q = int(rng.integers(n_qubits))
    if kind in (GateKind.H, GateKind.X):
        return GateOp(kind, (q,))
    return GateOp(kind, (q,), float(rng.uniform(-2 * np.pi, 2 * np.pi)))


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int):
    return [random_gate(rng, n_qubits) for _ in range(depth)]


def rank_then_pearson(x, y) -> float:
    """Spearman oracle: average ranks, then a direct Pearson on the ranks."""

    def avg_ranks(v):
        v = np.asarray(v, dtype=float)
        ranks = np.empty(len(v))
        for i, value in enumerate(v):
            less = np.sum(v < value)
            equal = np.sum(v == value)
            # average of the rank positions occupied by this tie group
            ranks[i] = less + (equal + 1) / 2.0
        return ranks

    ra, rb = avg_ranks(x), avg_ranks(y)
    da, db = ra - ra.mean(), rb - rb.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0:
        return 0.0
    return float(np.sum(da * db) / denom)


def two_pass_std(values) -> float:
    """Population standard deviation computed the textbook two-pass way."""
    values = np.asarray(values, dtype=float)
    mean = values.sum() / len(values)
    return float(np.sqrt(np.sum((values - mean) ** 2) / len(values)))


def logistic_regression_objective(X, y, weights, bias, C: float = 1.0):
    """Penalised softmax log-loss and its gradient at ``(weights, bias)``.

    The textbook formulas: mean negative log-likelihood plus
    ``0.5 / (C n) * ||W||^2`` (bias excluded), gradient
    ``D^T (P - Y) / n`` plus the penalty term on the weight rows.  Returns
    ``(loss, grad)`` with ``grad`` shaped like ``vstack([weights, bias])``.
    """
    X = np.asarray(X, dtype=float)
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    n, d = X.shape
    design = np.hstack([X, np.ones((n, 1))])
    params = np.vstack([weights, bias])
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), codes] = 1.0
    reg = 1.0 / (C * n)
    Z = design @ params
    shift = Z.max(axis=1, keepdims=True)
    probs = np.exp(Z - shift)
    norm = probs.sum(axis=1, keepdims=True)
    log_norm = np.log(norm[:, 0]) + shift[:, 0]
    loss = float(np.mean(log_norm - Z[np.arange(n), codes]))
    loss += 0.5 * reg * float(np.sum(params[:d] ** 2))
    grad = design.T @ ((probs / norm - onehot) / n)
    grad[:d] += reg * params[:d]
    return loss, grad


def logistic_regression_fit(X, y, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-5):
    """Softmax-regression gradient descent in its textbook form.

    A reference solver for small, well-conditioned problems, not a twin of
    the production Newton solver: fixed-step descent with Armijo
    backtracking and a growing step, stopping when the gradient norm drops
    below ``tol`` or after ``max_iter`` accepted steps.  Returns
    ``(weights, bias, n_iter)`` for two or more classes.
    """
    X = np.asarray(X, dtype=float)
    k = len(np.unique(np.asarray(y)))
    d = X.shape[1]

    def objective(params):
        return logistic_regression_objective(X, y, params[:d], params[d], C)

    params = np.zeros((d + 1, k))
    loss, grad = objective(params)
    n_iter = 0
    step = 1.0
    for iteration in range(max_iter):
        grad_norm_sq = float(np.sum(grad**2))
        if np.sqrt(grad_norm_sq) < tol:
            break
        accepted = False
        for _ in range(40):
            candidate = params - step * grad
            candidate_loss, candidate_grad = objective(candidate)
            if candidate_loss <= loss - 1e-4 * step * grad_norm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        params, loss, grad = candidate, candidate_loss, candidate_grad
        step = min(step * 1.5, 64.0)
        n_iter = iteration + 1
    return params[:d], params[d], n_iter


# --- CART and random forest -------------------------------------------------
#
# A verbatim copy of the recursive, linked-node ``classical/trees.py`` that the
# array-backed trees replaced (classes renamed, ``UsageError`` -> ValueError).
# The array-backed trees must reproduce its fitted-state text and predictions
# exactly.


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    leaf_class: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_columns(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # counts: (cuts, classes); sizes: (cuts,)
    with np.errstate(invalid="ignore"):
        frac = counts / sizes[:, None]
    return 1.0 - np.sum(frac**2, axis=1)


def _best_split(X, codes, row_idx, features, n_classes):
    """Scan midpoint thresholds of each candidate feature; minimize weighted Gini."""
    m = len(row_idx)
    best = None  # (weighted_gini, feature, threshold)
    y_node = codes[row_idx]
    for feature in features:
        x = X[row_idx, feature]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        ys = y_node[order]
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        cuts = np.nonzero(xs[1:] != xs[:-1])[0]  # split after position cut
        left_counts = cum[cuts]
        left_sizes = (cuts + 1).astype(float)
        right_counts = cum[-1] - left_counts
        right_sizes = m - left_sizes
        weighted = (
            left_sizes * _gini_columns(left_counts, left_sizes)
            + right_sizes * _gini_columns(right_counts, right_sizes)
        ) / m
        j = int(np.argmin(weighted))
        candidate = float(weighted[j])
        if best is None or candidate < best[0] - 1e-15:
            threshold = 0.5 * (xs[cuts[j]] + xs[cuts[j] + 1])
            best = (candidate, feature, threshold)
    return best


class RecursiveDecisionTree:
    """CART with Gini impurity, midpoint thresholds, and no pruning."""

    def __init__(self, max_depth: int = 15, max_features: int | None = None, rng=None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self.max_features = max_features
        self._rng = rng
        self.classes_: np.ndarray | None = None
        self.root_: _Node | None = None
        self.depth_ = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        if self.max_features is not None and self.max_features < X.shape[1] and self._rng is None:
            raise ValueError("feature subsets need an rng, and a tree's rng is spent by its fit")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.depth_ = 0
        self.root_ = self._grow(X, codes, np.arange(len(y)), depth=0)
        # the split stream is spent; a fitted tree does not carry (or pickle) it
        self._rng = None
        return self

    def _majority(self, codes, row_idx) -> int:
        counts = np.bincount(codes[row_idx], minlength=len(self.classes_))
        return int(np.argmax(counts))  # ties go to the lowest class index

    def _grow(self, X, codes, row_idx, depth) -> _Node:
        self.depth_ = max(self.depth_, depth)
        y_node = codes[row_idx]
        if depth >= self.max_depth or len(row_idx) < 2 or np.all(y_node == y_node[0]):
            return _Node(leaf_class=self._majority(codes, row_idx))
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            features = np.sort(self._rng.choice(d, size=self.max_features, replace=False))
        else:
            features = np.arange(d)
        best = _best_split(X, codes, row_idx, features, len(self.classes_))
        if best is None:
            return _Node(leaf_class=self._majority(codes, row_idx))
        _, feature, threshold = best
        mask = X[row_idx, feature] <= threshold
        left = self._grow(X, codes, row_idx[mask], depth + 1)
        right = self._grow(X, codes, row_idx[~mask], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def predict(self, X):
        if self.root_ is None:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.leaf_class
        return self.classes_[out]

    def _serialize(self, node: _Node) -> tuple:
        if node.is_leaf:
            return ("leaf", node.leaf_class)
        return (
            "split",
            node.feature,
            float(node.threshold),
            self._serialize(node.left),
            self._serialize(node.right),
        )

    def texts(self) -> list[str]:
        """The tree's nested tuple as text, the one item of a list."""
        if self.root_ is None:
            raise ValueError("model is not fitted")
        return [repr(self._serialize(self.root_))]


class RecursiveRandomForest:
    """Bootstrap-aggregated CART trees with sqrt-sized feature subsets."""

    def __init__(self, n_trees: int = 150, max_depth: int = 15, seed: int = 0):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.seed = int(seed)
        self.classes_: np.ndarray | None = None
        self.trees_: list[RecursiveDecisionTree] = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        self.classes_ = np.unique(y)
        n, d = X.shape
        max_features = int(np.ceil(np.sqrt(d)))
        self.trees_ = []
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        for stream in streams:
            rng = np.random.default_rng(stream)
            sample = rng.integers(0, n, size=n)
            tree = RecursiveDecisionTree(
                max_depth=self.max_depth, max_features=max_features, rng=rng
            )
            tree.fit(X[sample], y[sample])
            self.trees_.append(tree)
        return self

    def predict(self, X):
        if not self.trees_:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=float)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.trees_:
            pred = tree.predict(X)
            for i, label in enumerate(pred):
                votes[i, class_index[label]] += 1
        return self.classes_[np.argmax(votes, axis=1)]

    def texts(self) -> list[str]:
        """Each tree's nested tuple as text, in the codes of its own classes."""
        if not self.trees_:
            raise ValueError("model is not fitted")
        return [text for t in self.trees_ for text in t.texts()]


def tree_texts(model, oracle: RecursiveRandomForest | None = None) -> list[str]:
    """The texts ``texts`` of the recursive oracles give, read from the node
    table of a fitted ``DecisionTreeClassifier`` or ``RandomForestClassifier``.

    A recursive forest's tree shows the codes of the classes its own
    bootstrap held.  ``oracle``, the recursive forest fitted on the same rows
    with the same seed, grows the same bootstraps, so its trees' classes give
    each tree's codes; without it, every tree shows the forest's codes.
    """
    k = len(model.classes_)
    if not hasattr(model, "_roots"):
        return render_tree_texts(model._nodes, [0], np.arange(k)[None])
    if oracle is None:
        shown = np.tile(np.arange(k), (len(model._roots), 1))
    else:
        shown = np.cumsum([np.isin(model.classes_, tree.classes_) for tree in oracle.trees_], axis=1) - 1
    return render_tree_texts(model._nodes, model._roots, shown)


def render_tree_texts(nodes, roots, shown: np.ndarray) -> list[str]:
    """``repr`` of the nested ``('split', feature, threshold, left, right)`` /
    ``('leaf', class)`` tuple of each tree of ``nodes``, rooted at ``roots``,
    built in one pass over the table without recursion.

    ``shown[t, v]`` is the class code that tree ``t``'s text shows for a leaf
    of value ``v``.  Each node gives one piece of text: a split its opening,
    and a leaf its tuple, the closings of the splits whose subtrees end at
    it, and the separator that follows.  Equal pieces are rendered once.
    """
    n = len(nodes.right)
    leaf = nodes.right == np.arange(n)
    split = np.flatnonzero(~leaf)
    # split j's subtree ends at the first later node whose excess (splits
    # minus leaves up to and including it) is two below excess[j]
    excess = np.cumsum(np.where(leaf, -1, 1))
    low = excess.min()
    keys = np.sort((excess - low) * n + np.arange(n))
    ends = keys[np.searchsorted(keys, (excess[split] - 2 - low) * n + split + 1)] % n
    closes = np.bincount(ends, minlength=n)[leaf]
    last = np.zeros(n, dtype=bool)  # the last node of a tree, which a newline follows
    last[np.append(np.asarray(roots[1:], dtype=np.intp) - 1, n - 1)] = True
    tree = np.repeat(np.arange(len(roots)), np.diff(np.append(roots, n)))[leaf]
    code = shown.ravel().take(tree * shown.shape[1] + nodes.value[leaf])
    width = int(closes.max(initial=0)) + 1
    leaf_keys, leaf_piece = np.unique((code * width + closes) * 2 + last[leaf], return_inverse=True)
    seps = (", ", "\n")
    leaf_texts = [
        f"('leaf', {key // 2 // width}){')' * (key // 2 % width)}{seps[key % 2]}"
        for key in leaf_keys.tolist()
    ]
    feature = nodes.feature[split].astype(np.intp)
    patterns, pattern = np.unique(nodes.threshold[split].view(np.uint64), return_inverse=True)
    width = int(feature.max(initial=0)) + 1
    split_keys, split_piece = np.unique(pattern * width + feature, return_inverse=True)
    thresholds = patterns.view(float).tolist()
    split_texts = [
        f"('split', {np.int64(key % width)!r}, {thresholds[key // width]!r}, "
        for key in split_keys.tolist()
    ]
    pieces = np.empty(n, dtype=object)
    pieces[split] = np.array(split_texts, dtype=object).take(split_piece)
    pieces[leaf] = np.array(leaf_texts, dtype=object).take(leaf_piece)
    return "".join(pieces.tolist()).split("\n")[:-1]


_EPS = 1e-12


class NumpyScalarSmo:
    """Soft-margin dual solver for labels in {-1, +1} on a Gram matrix.

    Platt-style SMO kept on numpy scalars, with the non-bound set recomputed
    on every examination: the reference that the production solver must
    match bit for bit.
    """

    def __init__(self, C: float, tol: float, max_passes: int = 2000):
        self.C = C
        self.tol = tol
        self.max_passes = max_passes

    def solve(self, K: np.ndarray, y: np.ndarray):
        n = len(y)
        alpha = np.zeros(n)
        self._b = 0.0
        # error cache: E_i = f(x_i) - y_i with f = sum_j alpha_j y_j K_ij + b
        self._E = -y.astype(float)
        self._K = K
        self._y = y
        self._alpha = alpha

        examine_all = True
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            if examine_all:
                candidates = range(n)
            else:
                candidates = np.nonzero((alpha > _EPS) & (alpha < self.C - _EPS))[0]
            for i2 in candidates:
                changed += self._examine(int(i2))
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True
        return alpha, self._b

    def _examine(self, i2: int) -> int:
        alpha, y, E, C = self._alpha, self._y, self._E, self.C
        r2 = E[i2] * y[i2]
        if not ((r2 < -self.tol and alpha[i2] < C - _EPS) or (r2 > self.tol and alpha[i2] > _EPS)):
            return 0
        non_bound = np.nonzero((alpha > _EPS) & (alpha < C - _EPS))[0]
        if len(non_bound) > 1:
            gaps = np.abs(E[non_bound] - E[i2])
            i1 = int(non_bound[np.argmax(gaps)])
            if self._step(i1, i2):
                return 1
        for i1 in non_bound:
            if self._step(int(i1), i2):
                return 1
        for i1 in range(len(y)):
            if self._step(i1, i2):
                return 1
        return 0

    def _step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        alpha, y, E, K, C = self._alpha, self._y, self._E, self._K, self.C
        a1_old, a2_old = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, a1_old + a2_old - C), min(C, a1_old + a2_old)
        else:
            low, high = max(0.0, a2_old - a1_old), min(C, C + a2_old - a1_old)
        if high - low < _EPS:
            return False
        k11, k12, k22 = K[i1, i1], K[i1, i2], K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > _EPS:
            a2 = a2_old + y2 * (E[i1] - E[i2]) / eta
            a2 = min(max(a2, low), high)
        else:
            # flat direction (duplicate points): evaluate the objective at both ends
            f1 = y1 * (E[i1] + self._b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (E[i2] + self._b) - s * a1_old * k12 - a2_old * k22
            l1 = a1_old + s * (a2_old - low)
            h1 = a1_old + s * (a2_old - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1**2 * k11 + 0.5 * low**2 * k22
                + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1**2 * k11 + 0.5 * high**2 * k22
                + s * high * h1 * k12
            )
            if obj_low < obj_high - _EPS:
                a2 = low
            elif obj_high < obj_low - _EPS:
                a2 = high
            else:
                return False
        if abs(a2 - a2_old) < _EPS * (a2 + a2_old + _EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)

        d1 = y1 * (a1 - a1_old)
        d2 = y2 * (a2 - a2_old)
        b1 = self._b - E[i1] - d1 * k11 - d2 * k12
        b2 = self._b - E[i2] - d1 * k12 - d2 * k22
        if _EPS < a1 < C - _EPS:
            b_new = b1
        elif _EPS < a2 < C - _EPS:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self._E += d1 * K[:, i1] + d2 * K[:, i2] + (b_new - self._b)
        self._b = b_new
        alpha[i1], alpha[i2] = a1, a2
        return True


def ovo_votes_by_pair(kernel: np.ndarray, pairs: list[dict], n_classes: int) -> np.ndarray:
    """One-vs-one votes from a test-vs-train kernel, one pair at a time.

    ``kernel`` has one column per training row; each pair scores its own
    support columns with its own matvec and gives a vote to its first class
    when the score is >= 0, else to its second.
    """
    votes = np.zeros((kernel.shape[0], n_classes), dtype=int)
    for pair in pairs:
        scores = kernel[:, pair["indices"]] @ pair["coef"] + pair["bias"]
        a, b = pair["classes"]
        winner = np.where(scores >= 0.0, a, b)
        votes[np.arange(len(winner)), winner] += 1
    return votes


def max_kkt_violation(model, gram: np.ndarray, y) -> float:
    """Largest KKT violation of a fitted SVM's stored dual solution on its training Gram."""
    _, codes = np.unique(np.asarray(y), return_inverse=True)
    worst = 0.0
    for pair in model._pairs:
        a, b = pair["classes"]
        subset = np.nonzero((codes == a) | (codes == b))[0]
        y_pair = np.where(codes[subset] == a, 1.0, -1.0)
        alpha = np.zeros(len(subset))
        alpha[np.searchsorted(subset, pair["indices"])] = np.abs(pair["coef"])
        margin = y_pair * (gram[np.ix_(subset, subset)] @ (alpha * y_pair) + pair["bias"])
        at_zero = alpha <= _EPS
        at_c = alpha >= model.C - _EPS
        free = ~(at_zero | at_c)
        worst = max(
            worst,
            float(np.max(np.maximum(0.0, 1.0 - margin[at_zero]), initial=0.0)),
            float(np.max(np.maximum(0.0, margin[at_c] - 1.0), initial=0.0)),
            float(np.max(np.abs(margin[free] - 1.0), initial=0.0)),
        )
    return worst


# ---------------------------------------------------------------------------
# straightforward forms of the scoring kernels: a doubling loop per qubit, one
# Z phase call per QAOA layer, np.clip clamps, a degenerate-column np.where
# on every call and a forest vote that casts its links on every call.  The
# production kernels must match them bit for bit.

# rows of the bit-for-bit comparisons: 1 and 3 rows, the training-split sizes,
# and a batch whose temporaries pass NumPy's 256 KiB threshold for reusing a
# temporary operand as the output
SAME_BITS_ROWS = [1, 3, 144, 230, 320]


def doubling_ry_product_columns(angles: np.ndarray) -> np.ndarray:
    """RY(angles[r, q]) on each qubit q of |0...0> as real columns (2**n, batch),
    built one qubit at a time by doubling."""
    angles = np.asarray(angles, dtype=float)
    half = 0.5 * angles.T
    cos, sin = np.cos(half), np.sin(half)
    cols = np.ones((1, angles.shape[0]))
    for q in range(angles.shape[1]):
        # qubit q is the new most significant bit
        cols = np.concatenate([cols * cos[q], cols * sin[q]])
    return cols


def doubling_z_phase_rows(angles: np.ndarray) -> np.ndarray:
    """Diagonal of prod_q exp(-i angles[r, q] Z_q) per row, conjugating each
    qubit's factor inside the doubling loop."""
    angles = np.asarray(angles, dtype=float)
    factor = np.exp(-1j * angles)
    diag = np.ones((len(factor), 1), dtype=np.complex128)
    for q in range(factor.shape[1]):
        # qubit q is the new most significant bit: Z_q is +1 below, -1 above
        f = factor[:, q : q + 1]
        diag = np.concatenate([diag * f, diag * np.conj(f)], axis=1)
    return diag


def _z_sign_table(n_qubits: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return np.stack([1.0 - 2.0 * ((idx >> q) & 1) for q in range(n_qubits)], axis=1)


def clip_z_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """<Z_q> for every qubit, clamped to [-1, 1] with np.clip."""
    probs = amps.real**2 + amps.imag**2 if np.iscomplexobj(amps) else amps * amps
    return np.clip(probs @ _z_sign_table(n_qubits), -1.0, 1.0)


def clip_cross_overlap_sq(amps_a: np.ndarray, amps_b: np.ndarray) -> np.ndarray:
    """|<a_i|b_j>|**2 for two batches of states, clamped to [0, 1] with np.clip."""
    inner = np.conj(amps_a) @ amps_b.T
    return np.clip(inner.real**2 + inner.imag**2, 0.0, 1.0)


def per_layer_qaoa_amplitudes(x_z: np.ndarray, gamma: np.ndarray, zz_phases, mixers) -> np.ndarray:
    """The cost/mixer circuit's final amplitudes, one Z phase call per layer.

    ``x_z`` is each row's Z weight per qubit, and ``zz_phases`` and
    ``mixers`` hold one ZZ phase vector and one mixer matrix per layer.
    """
    n = x_z.shape[1]
    amps = (1 << n) ** -0.5  # |+...+>: every amplitude is 2**(-n/2)
    for layer, (zz_phase, mixer) in enumerate(zip(zz_phases, mixers)):
        # RZ(2 g x) is exp(-i g x Z)
        phase = doubling_z_phase_rows(x_z * gamma[layer * n : (layer + 1) * n]) * zz_phase
        amps = (amps * phase) @ mixer
    return amps


def forest_vote_with_casts(forest, X: np.ndarray) -> np.ndarray:
    """A fitted forest's majority vote, casting its roots to intp on every call
    and taking its node links in their stored dtypes."""
    n_rows, d = X.shape
    values = X.ravel()
    row_starts = np.arange(n_rows) * d
    nodes = forest._nodes
    node = np.repeat(forest._roots.astype(np.intp)[:, None], n_rows, axis=1)  # (trees, rows)
    for _ in range(forest._depth):
        x = values.take(nodes.feature.take(node) + row_starts)
        node = np.where(x <= nodes.threshold.take(node), node + 1, nodes.right.take(node))
    k = len(forest.classes_)
    codes = nodes.value.take(node) + k * np.arange(n_rows)
    votes = np.bincount(codes.ravel(), minlength=k * n_rows).reshape(n_rows, k)
    return forest.classes_[np.argmax(votes, axis=1)]


def apply_scaler_with_where(state, X: np.ndarray) -> np.ndarray:
    """A fitted scaler applied with its degenerate-column ``np.where`` always taken."""
    X = np.asarray(X, dtype=float)
    normalized = (X - state.offset) / state.scale
    if state.kind.value == "zscore":
        out = np.where(state.degenerate, 0.0, normalized)
    else:
        out = np.clip(normalized, 0.0, 1.0) * np.pi
        out = np.where(state.degenerate, np.pi / 2.0, out)
    return out


def loop_average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def list_minimize(loss, x0, max_evals: int):
    """Nelder-Mead with the vertices in two parallel Python lists, re-sorted by
    ``(value, tuple(point))`` each iteration: the reference that the array
    simplex of ``qcb.optimize.minimize`` must match evaluation by evaluation.
    It shares the evaluator and the coefficients with ``qcb.optimize``, so the
    two differ only in how they keep the simplex."""
    from qcb.errors import ConfigurationError, UsageError
    from qcb.optimize import (
        _ALPHA,
        _CHI,
        _INITIAL_STEP,
        _PSI,
        _SIGMA,
        _TOLERANCE,
        OptResult,
        _BudgetExhausted,
        _Evaluator,
    )

    if max_evals < 1:
        raise ConfigurationError("max_evals must be >= 1")
    start = np.asarray(x0, dtype=float).ravel()
    if start.size < 1:
        raise UsageError("x0 must have at least one element")
    dim = start.size
    evaluate = _Evaluator(loss, max_evals)

    points: list[np.ndarray] = []
    values: list[float] = []
    try:
        points.append(start.copy())
        values.append(evaluate(points[0]))
        for i in range(dim):
            vertex = start.copy()
            vertex[i] += _INITIAL_STEP
            points.append(vertex)
            values.append(evaluate(vertex))

        while True:
            order = sorted(range(dim + 1), key=lambda k: (values[k], tuple(points[k])))
            points = [points[k] for k in order]
            values = [values[k] for k in order]

            flat = np.isfinite(values[-1]) and values[-1] - values[0] <= _TOLERANCE
            tight = max(np.max(np.abs(p - points[0])) for p in points[1:]) <= _TOLERANCE
            if flat and tight:
                break

            centroid = np.mean(points[:-1], axis=0)
            worst = points[-1]
            reflected = centroid + _ALPHA * (centroid - worst)
            f_reflected = evaluate(reflected)

            if f_reflected < values[0]:
                expanded = centroid + _CHI * (centroid - worst)
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    points[-1], values[-1] = expanded, f_expanded
                else:
                    points[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                points[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + _PSI * (centroid - worst)
                    f_contracted = evaluate(contracted)
                    if f_contracted <= f_reflected:
                        points[-1], values[-1] = contracted, f_contracted
                        continue
                else:
                    contracted = centroid - _PSI * (centroid - worst)
                    f_contracted = evaluate(contracted)
                    if f_contracted < values[-1]:
                        points[-1], values[-1] = contracted, f_contracted
                        continue
                # shrink toward the current best vertex
                for k in range(1, dim + 1):
                    points[k] = points[0] + _SIGMA * (points[k] - points[0])
                    values[k] = evaluate(points[k])
    except _BudgetExhausted:
        pass

    best_params = evaluate.best_params if evaluate.best_params is not None else start
    return OptResult(
        best_params=np.asarray(best_params, dtype=float),
        best_loss=evaluate.best_loss,
        n_evals=evaluate.n_evals,
    )
