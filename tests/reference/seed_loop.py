"""Seed-implementation inner loop: the bit-exact oracle for the arena path.

Attaches to :class:`~repro.core.session.SearchSession` only by overriding
its private per-step seams (``_new_space``, ``_recluster``, ``_prune``,
``_score_novelty``, ``_predict_batch``); the session itself has no option
that selects this loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.sequence import FeatureNode, FeatureSpace
from repro.core.session import SearchSession
from repro.core.state import describe_matrix
from repro.ml.mutual_info import mutual_info_with_target
from repro.ml.preprocessing import sanitize_features


class DictFeatureSpace(FeatureSpace):
    """The seed's one-1-D-array-per-feature store.

    ``matrix()`` is ``np.column_stack`` over the stored columns and
    ``values()`` hands out the stored array itself. Without its arena
    fields (``_arena``, ``_n_samples``, ``_sig_count``) its ``__dict__``
    is the state of a ``FeatureSpace`` pickled before the arena store
    existed; the legacy-migration tests build old pickles that way.
    """

    def __init__(self, X: np.ndarray, feature_names: list[str] | None = None) -> None:
        self._columns: dict[int, np.ndarray] = {}
        super().__init__(X, feature_names)
        self._arena = None  # this store never reads the arena

    def _allocate(self, node: FeatureNode, values: np.ndarray) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self._nodes[fid] = FeatureNode(
            fid=fid, op=node.op, children=node.children, source_col=node.source_col
        )
        self._columns[fid] = sanitize_features(values.reshape(-1, 1)).ravel()
        return fid

    def matrix(self, fids: list[int] | None = None) -> np.ndarray:
        fids = self._live if fids is None else fids
        return np.column_stack([self._columns[f] for f in fids])

    def matrix_view(self, fids: list[int] | None = None) -> np.ndarray:
        return self.matrix(fids)

    def values(self, fid: int) -> np.ndarray:
        return self._columns[fid]


class SeedLoopSession(SearchSession):
    """``SearchSession`` running the seed implementation's inner loop.

    Per step it re-clusters and re-describes the full sanitized matrix,
    re-estimates every live feature's relevance before a prune, encodes
    the sequence three times for the novelty score and embedding, and
    records the autograd graph during inference. The incremental caches
    the base session builds are never read.
    """

    def _new_space(self) -> FeatureSpace:
        return DictFeatureSpace(self._X, self._feature_names)

    def _recluster(self, space):
        matrix = sanitize_features(space.matrix())
        fid_clusters = self._cluster_fids(space, self._cluster_matrix(matrix))
        overall_rep = describe_matrix(matrix)
        cluster_reps = np.stack(
            [describe_matrix(space.matrix(fids)) for fids in fid_clusters]
        )
        return fid_clusters, overall_rep, cluster_reps

    def _prune(self, space) -> None:
        if space.n_features <= self._feature_cap:
            return
        relevance = mutual_info_with_target(
            sanitize_features(space.matrix()),
            self._y,
            task=self.task,
            n_bins=self.config.mi_bins,
        )
        live = space.live_ids
        order = np.argsort(-relevance)
        space.prune([live[i] for i in order[: self._feature_cap]])

    def _score_novelty(self, seq: np.ndarray) -> tuple[float, np.ndarray]:
        return self._novelty.score(seq), self._novelty.embedding(seq)

    def _predict_batch(self, seqs: list[np.ndarray]) -> np.ndarray:
        return self._predictor.predict_batch(seqs)
