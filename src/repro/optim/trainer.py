"""Training loop implementing Algorithms 1 and 2 of the paper.

The trainer interleaves SGD on the model parameters with the lightweight
EM on the GM parameters.  Per mini-batch iteration the exact Algorithm 2
ordering is followed:

1. *E-step* (lazy): each adaptive regularizer refreshes its cached
   ``g_reg``; :func:`~repro.core.fusion.stacked_prepare` serves every
   due GM regularizer with one kernel call and runs the others'
   ``Regularizer.prepare``.
2. The data-misfit gradient ``g_ll`` is computed by the model and the
   regularizer gradients are added (Equation (10)).  Because the models
   report the *mean* per-sample loss while the MAP objective (Equation
   (8)) counts the prior once against a likelihood summed over all ``N``
   training samples, the regularizer gradient is scaled by ``1/N``.
   This is the standard weight-decay normalization and is what makes
   the paper's learned precisions (``lambda`` up to ~2000, Table IV)
   compatible with its learning rates: the per-step decay is
   ``lr * lambda / N``.
3. *M-step* (lazy): the GM parameters are updated
   (``Regularizer.update``).
4. *SGD step*: the optimizer applies the combined gradient.

One :class:`Step` object runs this iteration; two loops call it.
:meth:`Trainer.fit` walks a fixed dataset in epochs, and
:meth:`~repro.online.trainer.OnlineTrainer.partial_fit` takes one
streamed batch per call.  The same step trains logistic regression and
the deep networks; the model only has to satisfy :class:`TrainableModel`.
A batch loss that is NaN or infinite stops the step with a
:class:`NonFiniteError` before the M-step and SGD touch any parameter.

**Observability.**  Each of the four phases above runs inside a named
phase timer of the trainer's :class:`~repro.telemetry.metrics.MetricsRegistry`
(``phase/estep``, ``phase/grad``, ``phase/mstep``, ``phase/sgd``), so
the lazy-update savings of Figs. 5-7 are directly measurable per phase
rather than inferred from whole-epoch wall-clock.  ``fit`` additionally
accepts :class:`~repro.telemetry.events.Callback` observers which are
fired around epochs/batches/EM-steps without changing the Algorithm 2
ordering — telemetry reads state the loop already produced, so enabling
it leaves the losses bit-identical.  All timing (including the per-epoch
:class:`EpochRecord`) uses an injectable clock, making timing-dependent
tests deterministic.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.em import RegularizerEMState
from ..core.fusion import Workspace, stacked_prepare
from ..core.regularizers import Regularizer
from ..rng import default_generator
from ..telemetry.events import (
    BatchInfo,
    Callback,
    CallbackList,
    EMStepInfo,
    RunContext,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.runtime import default_callbacks
from ..telemetry.trace import start_span
from .schedules import ConstantLR, LRSchedule
from .sgd import SGD

__all__ = [
    "Parameter",
    "TrainableModel",
    "EpochRecord",
    "TrainingHistory",
    "TrainerState",
    "NonFiniteError",
    "Step",
    "Trainer",
]


@dataclass
class Parameter:
    """One trainable tensor plus its (optional) regularizer.

    Deep models attach a separate :class:`GMRegularizer` to each layer's
    weights (per-layer GMs, Section V-B1) and leave biases and batch-norm
    scales unregularized, mirroring standard weight-decay practice.
    """

    name: str
    value: np.ndarray
    regularizer: Optional[Regularizer] = None


class TrainableModel(Protocol):
    """What the trainer needs from a model."""

    def parameters(self) -> Sequence[Parameter]:
        """All trainable parameters, in a stable order."""
        ...

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        """Data-misfit loss and its gradients aligned with ``parameters()``."""
        ...

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard label predictions for accuracy evaluation."""
        ...


@dataclass
class EpochRecord:
    """Per-epoch training telemetry."""

    epoch: int
    train_loss: float
    elapsed_seconds: float
    cumulative_seconds: float
    val_accuracy: Optional[float] = None


@dataclass
class TrainingHistory:
    """Sequence of :class:`EpochRecord` plus convergence metadata.

    ``converged_epoch`` is the epoch at which a callback's stop request
    (e.g. :class:`~repro.telemetry.callbacks.EarlyStopping`) ended the
    fit, or ``None`` when it ran every epoch.
    """

    records: List[EpochRecord] = field(default_factory=list)
    converged_epoch: Optional[int] = None

    @property
    def total_seconds(self) -> float:
        """Total wall-clock training time."""
        return self.records[-1].cumulative_seconds if self.records else 0.0

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch."""
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].train_loss

    def losses(self) -> np.ndarray:
        """Per-epoch training losses."""
        return np.asarray([r.train_loss for r in self.records])

    def cumulative_times(self) -> np.ndarray:
        """Cumulative wall-clock seconds after each epoch (Fig. 5/7 series)."""
        return np.asarray([r.cumulative_seconds for r in self.records])


@dataclass(frozen=True)
class TrainerState:
    """Typed snapshot of a trainer's resumable EM state.

    Holds the global iteration counter plus, per regularized parameter,
    a :class:`~repro.core.em.RegularizerEMState` (``pi``/``lambda``, the
    refresh counters and — for online trainers — the decayed sufficient
    statistics).  :class:`Step` produces and consumes it for both
    :class:`Trainer` and :class:`~repro.online.trainer.OnlineTrainer`,
    so checkpoint restores and batch-to-online handoffs share one code
    path instead of reaching into private regularizer fields.
    """

    iteration: int
    em: Dict[str, RegularizerEMState]


class NonFiniteError(ValueError):
    """A training step produced a NaN or infinite batch loss.

    Raised by :class:`Step` before the M-step and SGD run, so no
    parameter and no ``pi``/``lambda`` is written from the bad batch.
    The message names the iteration and the phase.
    """


#: The Algorithm 2 phases, timed separately as ``phase/<name>``.
PHASES = ("estep", "grad", "mstep", "sgd")


class Step:
    """One Algorithm-2 iteration; :class:`Trainer` and
    :class:`~repro.online.trainer.OnlineTrainer` both call it.

    The step owns what the iteration touches: the parameter list, the
    SGD optimizer, the E-step :class:`~repro.core.fusion.Workspace`, the
    global iteration counter :attr:`it` and the four ``phase/<name>``
    timers of ``metrics``.  It reports each parameter's EM activity and
    takes and restores the :class:`TrainerState`.  The loops own
    everything around it: epochs and shuffling in :meth:`Trainer.fit`,
    the stream and its loss EWMA in
    :meth:`~repro.online.trainer.OnlineTrainer.partial_fit`.

    Parameters
    ----------
    model:
        The :class:`TrainableModel` whose parameters are trained.
    metrics:
        Registry holding the phase timers (looked up once: a registry's
        instruments survive :meth:`~repro.telemetry.metrics.MetricsRegistry.reset`).
    lr, momentum:
        The optimizer's initial learning rate and its momentum; loops
        change the rate through ``optimizer.set_lr``.
    iteration:
        Initial value of :attr:`it`, which drives the lazy schedule.
    """

    def __init__(
        self,
        model: TrainableModel,
        metrics: MetricsRegistry,
        lr: float,
        momentum: float,
        iteration: int = 0,
    ) -> None:
        self.model = model
        self.params = list(model.parameters())
        self.optimizer = SGD(
            [p.value for p in self.params], lr=lr, momentum=momentum
        )
        self.workspace = Workspace()
        self.it = int(iteration)
        self.timers = {phase: metrics.timer(f"phase/{phase}") for phase in PHASES}

    def __call__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        reg_scale: float,
        epoch: int = 0,
        on_em_step: Optional[Callable[[EMStepInfo], None]] = None,
    ) -> float:
        """Train on one mini-batch; returns its data-misfit loss.

        ``reg_scale`` weights each ``g_reg`` against the model's mean
        per-sample loss (``1/N``, see the module docstring).  With
        ``on_em_step``, every parameter whose regularizer ran an E- or
        M-step in this iteration is reported, tagged with ``epoch``.
        Raises :class:`NonFiniteError` when the batch loss is NaN or
        infinite; :attr:`it` then stays where it was.
        """
        it, params, timers = self.it, self.params, self.timers
        if on_em_step is not None:
            counts_before = [_em_counts(p.regularizer) for p in params]
        # E-step (lines 4-7): refresh cached g_reg where due, every due
        # per-layer GM in one kernel call.
        with timers["estep"]:
            stacked_prepare(params, it, workspace=self.workspace)
        # Data-misfit gradient g_ll plus regularizer gradient (Eq. (10)).
        with timers["grad"]:
            loss, grads = self.model.loss_and_gradients(x, y)
            for param, grad in zip(params, grads):
                if param.regularizer is not None:
                    grad += reg_scale * param.regularizer.gradient(param.value)
        if not math.isfinite(loss):
            raise NonFiniteError(
                f"non-finite batch loss {loss} at iteration {it} "
                "in phase 'grad'"
            )
        # M-step (lines 9-11): update pi/lambda where due.
        with timers["mstep"]:
            for param in params:
                if param.regularizer is not None:
                    param.regularizer.update(param.value, it)
        # SGD step (line 12).
        with timers["sgd"]:
            self.optimizer.step(grads)
        if on_em_step is not None:
            for param, (e0, m0) in zip(params, counts_before):
                reg = param.regularizer
                if reg is None:
                    continue
                e1, m1 = _em_counts(reg)
                if e1 > e0 or m1 > m0:
                    on_em_step(
                        EMStepInfo(
                            epoch=epoch,
                            iteration=it,
                            param_name=param.name,
                            did_estep=e1 > e0,
                            did_mstep=m1 > m0,
                            state=reg.telemetry_state(),
                        )
                    )
        self.it = it + 1
        return loss

    def state(self) -> TrainerState:
        """Snapshot :attr:`it` and every regularizer's EM state.

        Parameters without a regularizer, or with one that has no
        ``em_state()`` (the fixed-form baselines), are skipped: there is
        nothing EM-resumable about them.
        """
        em: Dict[str, RegularizerEMState] = {}
        for param in self.params:
            snapshot = getattr(param.regularizer, "em_state", None)
            if callable(snapshot):
                em[param.name] = snapshot()
        return TrainerState(iteration=self.it, em=em)

    def load_state(self, state: TrainerState) -> None:
        """Load a :class:`TrainerState` into the regularizers and :attr:`it`.

        Parameter names present in the snapshot but absent from the model
        (or vice versa) are ignored, mirroring the lenient ``strict=False``
        checkpoint semantics: restoring a partial snapshot resumes what it
        can.
        """
        for param in self.params:
            snapshot = state.em.get(param.name)
            restore = getattr(param.regularizer, "load_em_state", None)
            if snapshot is not None and callable(restore):
                restore(snapshot)
        self.it = int(state.iteration)


def _em_counts(reg: Optional[Regularizer]) -> Tuple[int, int]:
    """A regularizer's (E-step, M-step) refresh counts; zeros if it has none."""
    return getattr(reg, "estep_count", 0), getattr(reg, "mstep_count", 0)


class Trainer:
    """Mini-batch SGD + interleaved EM (Algorithms 1 and 2), in epochs.

    Parameters
    ----------
    model:
        Any :class:`TrainableModel`.
    lr:
        Learning rate, or an :class:`LRSchedule` for decaying rates.
    momentum:
        SGD momentum (paper: 0.9 for CNNs, 0 for logistic regression).
    batch_size:
        Mini-batch size; the number of mini-batches per epoch is the
        ``B`` of Algorithm 2.
    shuffle:
        Whether to reshuffle the training set every epoch.
    clock:
        Monotonic time source used for every duration this trainer
        records (epoch records and phase timers).  Injectable so tests
        can use a fake clock instead of sleeping; defaults to
        :func:`time.perf_counter`.
    metrics:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` receiving
        phase timers and counters.  A fresh registry (sharing ``clock``)
        is created when omitted.  The registry is reset at the start of
        every :meth:`fit`.
    """

    def __init__(
        self,
        model: TrainableModel,
        lr: float | LRSchedule = 0.1,
        momentum: float = 0.0,
        batch_size: int = 32,
        shuffle: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.schedule = lr if isinstance(lr, LRSchedule) else ConstantLR(float(lr))
        self.momentum = float(momentum)
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=clock)
        self._step = Step(
            model, self.metrics, self.schedule.lr_at(0), self.momentum
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        rng: Optional[np.random.Generator] = None,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        augment=None,
        callbacks: Optional[Sequence[Callback]] = None,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs.

        Each call starts a fresh optimizer (momentum restarts) while the
        iteration counter, and with it the lazy schedule, carries over.

        Parameters
        ----------
        x, y:
            Training inputs and integer labels; first axis is samples.
        epochs:
            Maximum number of passes over the data.
        rng:
            Source of shuffling randomness (seeded for reproducibility).
        x_val, y_val:
            Optional held-out split evaluated after every epoch.
        augment:
            Optional callable ``(batch, rng) -> batch`` applied to each
            mini-batch (the ResNet pad-crop/flip augmentation).
        callbacks:
            :class:`~repro.telemetry.events.Callback` observers.  Any
            ambient callbacks installed through
            :func:`repro.telemetry.runtime.use_callbacks` are appended
            automatically.  Callbacks never alter the computation; a
            callback may request an early stop via
            :meth:`~repro.telemetry.events.RunContext.request_stop`
            (e.g. :class:`~repro.telemetry.callbacks.EarlyStopping`),
            honoured at the end of the epoch, which the history then
            records as ``converged_epoch``.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        n = x.shape[0]
        if y.shape[0] != n:
            raise ValueError(f"x and y disagree on sample count: {n} vs {y.shape[0]}")
        rng = rng if rng is not None else default_generator()
        # Prior counted once vs. likelihood summed over N samples: with a
        # mean per-sample loss the regularizer enters at weight 1/N.
        reg_scale = 1.0 / float(n)
        step = self._step = Step(
            self.model, self.metrics, self.schedule.lr_at(0), self.momentum,
            self._step.it,
        )
        params, timers = step.params, step.timers

        self.metrics.reset()
        cbs = CallbackList(list(callbacks or ()) + list(default_callbacks()))
        ctx = RunContext(
            model=self.model,
            parameters=params,
            metrics=self.metrics,
            n_samples=n,
            batch_size=self.batch_size,
            max_epochs=epochs,
        )
        on_em_step = (
            functools.partial(cbs.on_em_step, ctx=ctx)
            if cbs.wants_em_step else None
        )
        emit_batch = cbs.wants_batch_end
        batch_counter = self.metrics.counter("train/batches")
        epoch_counter = self.metrics.counter("train/epochs")
        loss_hist = self.metrics.histogram("train/epoch_loss")

        history = TrainingHistory()
        start = self.clock()

        cbs.on_train_start(ctx)
        # One ambient span per fit; each epoch gets a child span whose
        # per-phase breakdown is recorded as synthetic children from the
        # phase-timer deltas (no per-batch span allocation).  Without an
        # ambient tracer these are all inert null spans.
        with start_span(
            "train/fit",
            attributes={"epochs": epochs, "n_samples": n},
        ):
            for epoch in range(epochs):
                with start_span(
                    "train/epoch", attributes={"epoch": epoch}
                ) as epoch_span:
                    phase_base = {
                        phase: timers[phase].total_seconds for phase in PHASES
                    }
                    step.optimizer.set_lr(self.schedule.lr_at(epoch))
                    self.metrics.gauge("train/lr").set(step.optimizer.lr)
                    cbs.on_epoch_start(epoch, ctx)
                    epoch_start = self.clock()
                    order = rng.permutation(n) if self.shuffle else np.arange(n)
                    epoch_loss = 0.0
                    n_batches = 0
                    for lo in range(0, n, self.batch_size):
                        batch = order[lo : lo + self.batch_size]
                        xb, yb = x[batch], y[batch]
                        if augment is not None:
                            xb = augment(xb, rng)
                        iteration = step.it
                        loss = step(xb, yb, reg_scale, epoch, on_em_step)
                        epoch_loss += loss
                        batch_counter.inc()
                        if emit_batch:
                            cbs.on_batch_end(
                                BatchInfo(
                                    epoch=epoch,
                                    batch_index=n_batches,
                                    iteration=iteration,
                                    size=xb.shape[0],
                                    loss=loss,
                                ),
                                ctx,
                            )
                        n_batches += 1
                    epoch_loss /= max(n_batches, 1)
                    epoch_counter.inc()
                    loss_hist.observe(epoch_loss)

                    for param in params:
                        if param.regularizer is not None:
                            param.regularizer.epoch_end(epoch)
                    self._record_em_totals(params)

                    now = self.clock()
                    val_acc = None
                    if x_val is not None and y_val is not None:
                        val_acc = float(
                            np.mean(self.model.predict(x_val) == y_val)
                        )
                    record = EpochRecord(
                        epoch=epoch,
                        train_loss=epoch_loss,
                        elapsed_seconds=now - epoch_start,
                        cumulative_seconds=now - start,
                        val_accuracy=val_acc,
                    )
                    history.records.append(record)
                    epoch_span.set_attribute("loss", epoch_loss)
                    for phase in PHASES:
                        delta = (
                            timers[phase].total_seconds - phase_base[phase]
                        )
                        if delta > 0.0:
                            epoch_span.record_child(
                                f"train/{phase}", delta
                            )
                    cbs.on_epoch_end(record, ctx)

                if ctx.stop_requested:
                    history.converged_epoch = epoch
                    break
        cbs.on_train_end(history, ctx)
        return history

    # ------------------------------------------------------------------
    def state(self) -> TrainerState:
        """Snapshot the trainer's resumable EM state (see :class:`TrainerState`).

        Taken after :meth:`fit` this is the final EM state — the handoff
        an :class:`~repro.online.trainer.OnlineTrainer` resumes from.
        """
        return self._step.state()

    def load_state(self, state: TrainerState) -> None:
        """Resume from a :class:`TrainerState` snapshot.

        Restores every regularizer's ``pi``/``lambda`` and the global
        iteration counter, so a subsequent :meth:`fit` continues the
        lazy-update schedule instead of restarting it.
        """
        self._step.load_state(state)

    # ------------------------------------------------------------------
    def _record_em_totals(self, params: List[Parameter]) -> None:
        """Publish cumulative E-/M-step refresh counts as gauges.

        Summed across parameters so the Figs. 5-7 benchmarks can verify
        measured per-phase savings against the schedule's expected
        refresh fraction.
        """
        esteps = msteps = densities = 0
        seen = False
        for param in params:
            reg = param.regularizer
            if reg is None:
                continue
            e = getattr(reg, "estep_count", None)
            m = getattr(reg, "mstep_count", None)
            if e is None and m is None:
                continue
            seen = True
            esteps += int(e or 0)
            msteps += int(m or 0)
            densities += int(getattr(reg, "density_evals", None) or 0)
        if seen:
            self.metrics.gauge("em/estep_refreshes").set(esteps)
            self.metrics.gauge("em/mstep_refreshes").set(msteps)
            self.metrics.gauge("em/density_evals").set(densities)
