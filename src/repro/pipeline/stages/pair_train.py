"""Algorithm 1's pair-training loop as an incrementally cached stage."""

from __future__ import annotations

import itertools
from typing import Any

from ..artifacts import (
    ArtifactKey,
    combine_fingerprints,
    fingerprint_obj,
    fingerprint_sequence,
)
from ..executor import FactorySpec, PairExecutor, PairTask
from .base import Stage, StageContext

__all__ = ["PairTrainStage", "spec_fingerprint"]


def spec_fingerprint(spec: FactorySpec) -> str | None:
    """Fingerprint an engine/factory spec, or ``None`` when uncacheable.

    Engine specs (engine name plus optional NMT config) are always
    fingerprintable.  A custom ``model_factory`` callable is opaque, so
    its pairs are only cacheable when the factory carries an explicit
    ``cache_token`` attribute vouching for its identity.
    """
    if spec[0] == "engine":
        return fingerprint_obj(["engine", spec[1], spec[2]])
    token = getattr(spec[1], "cache_token", None)
    if token is None:
        return None
    return fingerprint_obj(["factory", str(token)])


class PairTrainStage(Stage):
    """Train and score every ordered sensor pair, reusing stored models.

    Each pair's artifact key fingerprints exactly the inputs that shape
    its model: the two sensors' training and development event data,
    the windowing config, the engine spec and the stage version.  Pairs
    whose key is already in the store are restored without training
    (``build_report.cached``); the remainder go through the
    :class:`~repro.pipeline.executor.PairExecutor`, whose completion
    callback saves each freshly trained pair to the store the moment
    it finishes.  A killed build therefore keeps every finished pair,
    and rerunning it with the same store is the resume.  Perturbing
    one sensor retrains only the ``2(N-1)`` pairs whose fingerprint
    covers it.  Pairs of a custom factory without a ``cache_token``
    are never stored, so such builds do not resume.
    """

    name = "pair-train"
    # 2: pair fingerprints hash interned code matrices and cover the
    # sentence representation, invalidating version-1 pair artifacts.
    version = "2"
    inputs = (
        "training_log",
        "development_log",
        "language_config",
        "representation",
        "corpus",
        "dev_sentences",
        "factory_spec",
        "pairs",
        "prescreen",
        "executor_options",
    )
    outputs = ("relationships", "build_report")
    # "prescreen" defaults to None so pipelines without a
    # PrescreenStage keep their wiring (and artifact keys) unchanged.
    defaults = {"representation": "codes", "prescreen": None}

    def pair_key(
        self,
        spec_digest: str,
        config_digest: str,
        source_train: str,
        target_train: str,
        source_dev: str,
        target_dev: str,
    ) -> ArtifactKey:
        """The content address of one directed pair's fitted relationship."""
        return ArtifactKey(
            "pair",
            combine_fingerprints(
                self.version,
                spec_digest,
                config_digest,
                source_train,
                target_train,
                source_dev,
                target_dev,
            ),
        )

    def compute(self, context: StageContext) -> dict[str, Any]:
        corpus = context["corpus"]
        dev_sentences = context["dev_sentences"]
        spec: FactorySpec = context["factory_spec"]
        options = context["executor_options"]
        progress = options.get("progress")

        pairs = context["pairs"]
        if pairs is None:
            pair_list = list(itertools.permutations(corpus.sensors, 2))
        else:
            pair_list = list(pairs)

        # Structural problems abort the build up front; only per-pair
        # model failures degrade to skipped edges below.
        short = sorted(
            {
                name
                for pair in pair_list
                for name in pair
                if name in dev_sentences and not dev_sentences[name]
            }
        )
        if short:
            raise ValueError(
                "development log too short to produce a sentence for "
                f"sensors: {short}"
            )

        tasks = [
            PairTask(
                source=source,
                target=target,
                corpus=corpus.parallel(source, target),
                dev_source=dev_sentences[source],
                dev_target=dev_sentences[target],
            )
            for source, target in pair_list
        ]

        cached: dict[tuple[str, str], Any] = {}
        keys: dict[tuple[str, str], ArtifactKey] = {}
        pending = tasks
        store = context.store
        spec_digest = spec_fingerprint(spec) if store is not None else None
        if store is not None and spec_digest is not None:
            training_log = context["training_log"]
            development_log = context["development_log"]
            config_digest = fingerprint_obj(
                [context["language_config"], context["representation"]]
            )
            involved = sorted({name for pair in pair_list for name in pair})
            train_digests = {
                name: fingerprint_sequence(training_log[name]) for name in involved
            }
            dev_digests = {
                name: fingerprint_sequence(development_log[name]) for name in involved
            }
            pending = []
            for task in tasks:
                key = self.pair_key(
                    spec_digest,
                    config_digest,
                    train_digests[task.source],
                    train_digests[task.target],
                    dev_digests[task.source],
                    dev_digests[task.target],
                )
                keys[task.pair] = key
                relationship = store.get(key)
                if relationship is not None:
                    cached[task.pair] = relationship
                    if progress is not None:
                        progress(task.source, task.target, relationship.score)
                else:
                    pending.append(task)

        def save(relationship: Any) -> None:
            store.save(keys[(relationship.source, relationship.target)], relationship)

        executor = PairExecutor(
            n_jobs=options.get("n_jobs", 1),
            backend=options.get("backend", "auto"),
            retries=options.get("retries", 1),
            progress=progress,
            on_complete=save if keys else None,
            metrics=context.metrics,
            cohort_size=options.get("cohort_size"),
        )
        results, report = executor.run(pending, spec)
        report.cached = [task.pair for task in tasks if task.pair in cached]
        prescreen = context["prescreen"]
        if prescreen is not None:
            report.pruned = [tuple(pair) for pair in prescreen.pruned_pairs]
        context.metrics.counter("pair_train.cached").inc(len(report.cached))

        if tasks and not results and not cached:
            first = report.skipped[0]
            raise RuntimeError(
                f"all {len(tasks)} pair models failed; first error for "
                f"({first.source!r}, {first.target!r}): {first.error}"
            )

        # Assemble in the original pair order so serial, parallel and
        # cached builds produce byte-identical relationship/score dicts.
        merged = {**cached, **results}
        relationships = {
            task.pair: merged[task.pair] for task in tasks if task.pair in merged
        }
        return {"relationships": relationships, "build_report": report}
