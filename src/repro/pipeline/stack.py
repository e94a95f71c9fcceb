"""End-to-end analytics stack orchestration (GEMINI, Figure 1).

Ties the substrate stages together the way the paper's Figure 1 does:
raw data is committed to immutable storage, cleaned (DICE), profiled
and aggregated (epiC), optionally cohort-analyzed (CohAna), and finally
modelled with the adaptive GM regularization tool plugged into the
training stage.  Every intermediate dataset is a commit, so the whole
run is reproducible and auditable.

:meth:`AnalyticsStack.serve` closes the loop with the deployment stage:
the trained model is published into a
:class:`~repro.serve.registry.ModelRegistry` and fronted by a
micro-batching :class:`~repro.serve.server.ModelServer`, so one object
covers the paper's full train → commit → serve story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.registry import ModelRegistry
    from ..serve.server import ModelServer

import numpy as np

from ..core.regularizers import Regularizer
from ..datasets.preprocessing import TabularEncoder
from ..datasets.table import Table
from ..linear.logistic import LogisticRegression
from ..linear.metrics import accuracy
from ..linear.model_selection import stratified_train_test_split
from ..optim.trainer import Trainer, TrainingHistory
from .analytics import ColumnSummary, summarize
from .cleaning import CleaningReport, DataCleaner
from .storage import VersionedStore

__all__ = ["StackResult", "AnalyticsStack"]


@dataclass
class StackResult:
    """Everything an end-to-end run produces."""

    cleaning_report: CleaningReport
    profile: List[ColumnSummary]
    test_accuracy: float
    history: TrainingHistory
    model: LogisticRegression
    commits: Dict[str, str] = field(default_factory=dict)  # stage -> version
    encoder: Optional[TabularEncoder] = None  # fitted feature encoder


class AnalyticsStack:
    """A small GEMINI: storage + cleaning + profiling + modelling.

    Parameters
    ----------
    cleaner:
        The DICE stage; its rules define what "clean" means for the
        incoming data.
    regularizer_factory:
        Builds the regularizer for the model's weight vector given the
        encoded feature dimension — plug in the GM tool here, ideally
        through the paper's hyper-parameter guidance
        (``lambda m: make_recommended_regularizer(m, n_train)``), or
        any fixed baseline.
    lr, epochs, batch_size:
        Training-stage settings.
    """

    def __init__(
        self,
        cleaner: DataCleaner,
        regularizer_factory: Callable[[int], Optional[Regularizer]],
        lr: float = 0.5,
        epochs: int = 60,
        batch_size: int = 64,
    ):
        self.cleaner = cleaner
        self.regularizer_factory = regularizer_factory
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.store = VersionedStore()

    def run(
        self,
        raw: Table,
        labels: np.ndarray,
        label_alignment: str = "prefix",
        seed: int = 0,
        drop_columns: Optional[List[str]] = None,
    ) -> StackResult:
        """Execute the full pipeline on raw data.

        Parameters
        ----------
        raw:
            The raw (dirty) feature table.
        labels:
            Binary outcome labels.  With ``label_alignment="prefix"``
            they correspond to the first ``len(labels)`` *cleaned* rows
            (the convention of the synthetic raw hospital data, whose
            duplicates are appended at the end and removed by cleaning).
        seed:
            Controls the train/test split and training shuffling.
        drop_columns:
            Identifier columns (e.g. ``patient_id``) excluded from the
            feature matrix after cleaning.
        """
        commits: Dict[str, str] = {}
        commits["raw"] = self.store.commit("main", raw, "ingest raw data").version

        cleaned, report = self.cleaner.clean(raw)
        commits["cleaned"] = self.store.commit(
            "main", cleaned, "DICE cleaning"
        ).version

        if cleaned.n_rows < labels.shape[0]:
            raise ValueError(
                f"cleaning left {cleaned.n_rows} rows but there are "
                f"{labels.shape[0]} labels"
            )
        if label_alignment == "prefix":
            cleaned = cleaned.take(np.arange(labels.shape[0]))
        elif label_alignment != "exact":
            raise ValueError(f"unknown label_alignment {label_alignment!r}")
        if label_alignment == "exact" and cleaned.n_rows != labels.shape[0]:
            raise ValueError("exact alignment requires matching row count")

        features = (
            cleaned.without_columns(drop_columns) if drop_columns else cleaned
        )
        profile = summarize(features)

        rng = np.random.default_rng(seed)
        train_idx, test_idx = stratified_train_test_split(
            labels, test_fraction=0.2, rng=rng
        )
        encoder = TabularEncoder()
        x_train = encoder.fit_transform(features.take(train_idx))
        x_test = encoder.transform(features.take(test_idx))
        y_train, y_test = labels[train_idx], labels[test_idx]

        regularizer = self.regularizer_factory(x_train.shape[1])
        model = LogisticRegression(
            x_train.shape[1],
            regularizer=regularizer,
            rng=np.random.default_rng(seed + 1),
        )
        trainer = Trainer(
            model, lr=self.lr, batch_size=self.batch_size
        )
        history = trainer.fit(
            x_train, y_train, epochs=self.epochs,
            rng=np.random.default_rng(seed + 2),
        )
        test_accuracy = accuracy(y_test, model.predict(x_test))
        return StackResult(
            cleaning_report=report,
            profile=profile,
            test_accuracy=test_accuracy,
            history=history,
            model=model,
            commits=commits,
            encoder=encoder,
        )

    def serve(
        self,
        result: StackResult,
        name: str = "readmission-risk",
        registry: "Optional[ModelRegistry]" = None,
        registry_dir: Optional[str] = None,
        **server_kwargs,
    ) -> "ModelServer":
        """Publish ``result.model`` and return a running model server.

        The model is committed to ``registry`` (a fresh one is created
        when omitted — on disk under ``registry_dir``, otherwise
        in-memory) as the next version of ``name`` and activated, then
        fronted by a :class:`~repro.serve.server.ModelServer` whose
        micro-batching/caching knobs pass through ``server_kwargs``.
        The server scores *encoded* feature rows; use ``result.encoder``
        to transform cleaned tables into its input space.  Close the
        returned server (it is a context manager) to answer what is
        still queued and stop accepting requests.
        """
        from ..serve.registry import ModelRegistry
        from ..serve.server import ModelServer

        if registry is None:
            registry = ModelRegistry(registry_dir)
        n_features = result.model.n_features
        registry.register(
            name, lambda: LogisticRegression(n_features, weight_init_std=0.0)
        )
        registry.publish(
            name,
            result.model,
            metadata={
                "test_accuracy": result.test_accuracy,
                "commits": dict(result.commits),
            },
        )
        return ModelServer(registry=registry, name=name, **server_kwargs)
