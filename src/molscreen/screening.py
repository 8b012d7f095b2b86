"""Five-tier candidate screening funnel.

Tier order: vocabulary filter, scaffold gate, top-fraction ranking by
predicted efficiency, property thresholds, availability of a CAS code.
Survivor sets are nested, every dropped record carries exactly one
(tier, cause) reason, and the whole run is deterministic: records are
keyed and ordered by canonical SMILES, so permuting the rows of the pool
file changes nothing in the report. The claim covers the pool only: when
two rows of the property table share a canonical molecule the last row
wins, so that table's row order can change the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, selection
from .dataio import parse_number, read_json_object, read_molecules
from .features import (
    BLOCK_ORDER,
    DESCRIPTOR_NAMES,
    KeySet,
    LatentTable,
    assemble,
    default_keyset,
    descriptors,
    load_keyset,
    load_latents,
)
from .models import load_model
from .molgraph import MolecularGraph
from .scaffold import ScaffoldRegistry, classify, load_registry


class ScreeningError(ValueError):
    pass


@dataclass
class PoolRecord:
    smiles: str
    canonical: str
    graph: MolecularGraph
    cas: str | None = None
    group_id: int | None = None
    predicted_pce: float | None = None
    donor_number: float | None = None
    dipole_moment: float | None = None
    hba: int | None = None


@dataclass(frozen=True)
class CandidatePool:
    records: tuple[PoolRecord, ...]  # sorted by canonical SMILES, unique
    parse_failures: tuple[tuple[int, str, str], ...]  # (row, smiles, reason)
    merged_duplicates: int


@dataclass(frozen=True)
class PropertyThresholds:
    dn_min: float = float("-inf")
    dm_min: float = float("-inf")
    ha_min: int = 0


@dataclass(frozen=True)
class FunnelConfig:
    pool: Path
    registry: Path
    model: Path
    pipeline: Path
    blocks: tuple[str, ...]
    top_fraction: float
    thresholds: PropertyThresholds
    properties: Path | None = None
    cas: Path | None = None
    keyset: Path | None = None
    latents: Path | None = None
    vocabulary_elements: frozenset[str] | None = None
    require_latent: bool = False
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "FunnelConfig":
        """The checked config in ``path``, as :meth:`from_dict` reads it."""
        path = Path(path)
        try:
            return read_json_object(path, lambda d: cls.from_dict(d, path.parent), ScreeningError)
        except ScreeningError as exc:
            raise ScreeningError(f"funnel config {exc}") from None

    @classmethod
    def from_dict(cls, data: dict, base: Path) -> "FunnelConfig":
        """The config in ``data`` with paths relative to ``base``; a malformed
        field raises ``ScreeningError`` naming it, a null one reads as absent."""

        def get(part: dict, name: str, cast, default=None):
            got = part.get(name.rpartition(".")[2])
            return default if got is None else dataio.json_value(got, cast, name, ScreeningError)

        def resolve(key: str, required: bool = True) -> Path | None:
            value = data.get(key)
            if value is None:
                if required:
                    raise ScreeningError(f"misses {key!r}")
                return None
            if not isinstance(value, str) or not value:
                raise ScreeningError(f"{key} must be a file path, got {value!r}")
            return (base / value).resolve() if not Path(value).is_absolute() else Path(value)

        fraction = get(data, "top_fraction", dataio.number, 0.01)
        if not (0.0 < fraction <= 1.0):
            raise ScreeningError("top_fraction must be in (0, 1]")
        thresholds = get(data, "thresholds", dataio.json_object, {})
        vocab = get(data, "vocabulary", dataio.json_object, {})
        elements = get(vocab, "vocabulary.elements", dataio.strings)
        blocks = tuple(get(data, "blocks", dataio.strings, ["D"]))
        if not blocks or not set(blocks) <= set(BLOCK_ORDER):
            raise ScreeningError(
                f"blocks must list one or more of {', '.join(BLOCK_ORDER)}, got {list(blocks)!r}"
            )
        latents = resolve("latents", required=False)
        if "Z" in blocks and latents is None:
            raise ScreeningError("blocks include Z but the config names no latents file")
        return cls(
            pool=resolve("pool"),
            registry=resolve("registry"),
            model=resolve("model"),
            pipeline=resolve("pipeline"),
            blocks=blocks,
            top_fraction=fraction,
            thresholds=PropertyThresholds(
                dn_min=get(thresholds, "thresholds.dn_min", dataio.number, float("-inf")),
                dm_min=get(thresholds, "thresholds.dm_min", dataio.number, float("-inf")),
                ha_min=get(thresholds, "thresholds.ha_min", dataio.integer, 0),
            ),
            properties=resolve("properties", required=False),
            cas=resolve("cas", required=False),
            keyset=resolve("keyset", required=False),
            latents=latents,
            vocabulary_elements=None if elements is None else frozenset(elements),
            require_latent=get(vocab, "vocabulary.require_latent", dataio.boolean, False),
            raw=data,
        )


@dataclass(frozen=True)
class TierOutcome:
    name: str
    input_count: int
    survivor_count: int
    drops: dict[str, int]


@dataclass(frozen=True)
class ScreeningReport:
    pool_size: int
    failed_rows: tuple[tuple[int, str, str], ...]  # (row, smiles, reason)
    merged_duplicates: int
    tiers: tuple[TierOutcome, ...]
    final: tuple[PoolRecord, ...]
    config_echo: dict

    @property
    def parse_failures(self) -> int:
        return len(self.failed_rows)

    def to_dict(self) -> dict:
        return {
            "pool_size": self.pool_size,
            "parse_failures": self.parse_failures,
            "failed_rows": [
                {"row": row, "smiles": smiles, "reason": reason}
                for row, smiles, reason in self.failed_rows
            ],
            "merged_duplicates": self.merged_duplicates,
            "tiers": [
                {
                    "name": t.name,
                    "input": t.input_count,
                    "survivors": t.survivor_count,
                    "drops": dict(sorted(t.drops.items())),
                }
                for t in self.tiers
            ],
            "final": [
                {
                    "canonical_smiles": r.canonical,
                    "smiles": r.smiles,
                    "predicted_pce": r.predicted_pce,
                    "scaffold_group": r.group_id,
                    "donor_number": r.donor_number,
                    "dipole_moment": r.dipole_moment,
                    "hba": r.hba,
                    "cas": r.cas,
                }
                for r in self.final
            ],
            "config": self.config_echo,
        }

    def render_text(self) -> str:
        lines = [
            f"pool: {self.pool_size} unique records "
            f"({self.parse_failures} unparseable rows dropped at load, "
            f"{self.merged_duplicates} duplicates merged)",
            *(
                f"  row {row} ({smiles!r}): {reason}"
                for row, smiles, reason in self.failed_rows
            ),
            "",
            f"{'tier':<12} {'in':>8} {'out':>8}  drops",
            "-" * 48,
        ]
        for tier in self.tiers:
            drop_text = (
                ", ".join(f"{k}={v}" for k, v in sorted(tier.drops.items()))
                or "-"
            )
            lines.append(
                f"{tier.name:<12} {tier.input_count:>8} "
                f"{tier.survivor_count:>8}  {drop_text}"
            )
        lines.append("")
        lines.append("top candidates:")
        for r in self.final[:20]:
            cas = r.cas or "-"
            lines.append(
                f"  {r.predicted_pce:7.3f}  group {r.group_id}  cas {cas:<12} {r.canonical}"
            )
        return "\n".join(lines) + "\n"


def top_count(n: int, fraction: float) -> int:
    """Survivor count of the ranking tier: ceil(n * fraction)."""
    if n == 0:
        return 0
    return math.ceil(n * fraction)


def load_pool(path: str | Path, parsed: dict | None = None) -> CandidatePool:
    """Read a candidate pool CSV (``smiles[,cas]``).

    Unparseable rows are set aside with their reason; duplicate canonical
    structures are merged, keeping the lexicographically smallest spelling
    and CAS code so the pool is independent of row order. ``parsed`` is as
    in ``dataio.read_molecules``.
    """
    by_canonical: dict[str, PoolRecord] = {}
    failures: list[tuple[int, str, str]] = []
    merged = 0
    with read_molecules(path, ("smiles",), ScreeningError, parsed=parsed) as (_, rows):
        for row_no, row, graph in rows:
            smiles = row["smiles"]
            cas = (row.get("cas") or "").strip()
            if isinstance(graph, str):
                failures.append((row_no, smiles, graph))
                continue
            existing = by_canonical.get(graph.canonical)
            if existing is None:
                by_canonical[graph.canonical] = PoolRecord(
                    smiles=smiles, canonical=graph.canonical, graph=graph, cas=cas or None
                )
            else:
                merged += 1
                if smiles < existing.smiles:
                    existing.smiles = smiles
                if cas:
                    if existing.cas is None or cas < existing.cas:
                        existing.cas = cas
    records = tuple(by_canonical[c] for c in sorted(by_canonical))
    return CandidatePool(
        records=records,
        parse_failures=tuple(failures),
        merged_duplicates=merged,
    )


def load_property_table(path: str | Path, parsed: dict | None = None) -> dict[str, dict]:
    """Property table CSV ``smiles,donor_number,dipole_moment[,hba]``;
    blank cells mean the value is missing. When several rows hold the same
    canonical molecule, the last one wins."""
    table: dict[str, dict] = {}
    columns = ("smiles", "donor_number", "dipole_moment")
    with read_molecules(path, columns, ScreeningError, parsed=parsed) as (_, rows):
        for row_no, row, graph in rows:
            if isinstance(graph, str):
                raise ScreeningError(f"property row {row_no} ({row['smiles']!r}): {graph}")
            entry = {}
            for key, cast in (("donor_number", float), ("dipole_moment", float), ("hba", int)):
                text = (row.get(key) or "").strip()
                entry[key] = (
                    parse_number(text, cast, f"property row {row_no}: {key}", ScreeningError)
                    if text
                    else None
                )
            table[graph.canonical] = entry
    return table


def load_cas_table(path: str | Path, parsed: dict | None = None) -> dict[str, str]:
    """CAS table CSV ``smiles,cas``; rows with a blank code are skipped, and
    a molecule listed with several codes keeps the smallest."""
    table: dict[str, str] = {}
    with read_molecules(path, ("smiles", "cas"), ScreeningError, parsed=parsed) as (_, rows):
        for row_no, row, graph in rows:
            cas = (row.get("cas") or "").strip()
            if not cas:
                continue
            if isinstance(graph, str):
                raise ScreeningError(f"CAS row {row_no} ({row['smiles']!r}): {graph}")
            if graph.canonical not in table or cas < table[graph.canonical]:
                table[graph.canonical] = cas
    return table


def tier_vocab(
    records: list[PoolRecord],
    elements: frozenset[str] | None,
    latents: LatentTable | None = None,
    require_latent: bool = False,
) -> tuple[list[PoolRecord], dict[str, int]]:
    """Keep molecules covered by the element vocabulary and, when a latent
    table is enforced, present in it."""
    survivors: list[PoolRecord] = []
    drops: dict[str, int] = {}
    for record in records:
        if elements is not None:
            used = {a.element for a in record.graph.atoms}
            if not used.issubset(elements):
                drops["element_not_in_vocabulary"] = (
                    drops.get("element_not_in_vocabulary", 0) + 1
                )
                continue
        if require_latent and (
            latents is None or record.canonical not in latents.vectors
        ):
            drops["missing_latent"] = drops.get("missing_latent", 0) + 1
            continue
        survivors.append(record)
    return survivors, drops


def tier_scaffold(
    records: list[PoolRecord], registry: ScaffoldRegistry
) -> tuple[list[PoolRecord], dict[str, int]]:
    survivors: list[PoolRecord] = []
    drops: dict[str, int] = {}
    memo: dict = {}
    for record in records:
        gate = classify(record.graph, registry, memo=memo)
        if gate.known:
            record.group_id = gate.group_id
            survivors.append(record)
        else:
            drops["novel_scaffold"] = drops.get("novel_scaffold", 0) + 1
    return survivors, drops


def tier_rank(
    records: list[PoolRecord],
    model,
    pipeline: selection.SelectionPipeline,
    blocks,
    keyset: KeySet | None,
    latents: LatentTable | None,
    top_fraction: float,
) -> tuple[list[PoolRecord], dict[str, int]]:
    """Predict for every record and keep the ceil(n * fraction) highest,
    ranked descending with canonical-SMILES tie-break."""
    if not records:
        return [], {}
    matrix = assemble(
        [r.graph for r in records], blocks, keyset=keyset, latents=latents
    )
    X = selection.apply(pipeline, matrix)
    predictions = model.predict(X)
    for record, value in zip(records, predictions):
        record.predicted_pce = float(value)
    ranked = sorted(records, key=lambda r: (-r.predicted_pce, r.canonical))
    keep = top_count(len(ranked), top_fraction)
    survivors = sorted(ranked[:keep], key=lambda r: r.canonical)
    dropped = len(ranked) - keep
    drops = {"below_rank_cutoff": dropped} if dropped else {}
    return survivors, drops


def tier_properties(
    records: list[PoolRecord],
    table: dict[str, dict],
    thresholds: PropertyThresholds,
) -> tuple[list[PoolRecord], dict[str, int]]:
    """Threshold filter on donor number, dipole moment and H-bond-acceptor
    count. Records with no tabulated DN or DM are dropped and counted
    separately; a missing HA falls back to the computed descriptor."""
    survivors: list[PoolRecord] = []
    drops: dict[str, int] = {}
    hba_position = DESCRIPTOR_NAMES.index("hba_count")
    for record in records:
        entry = table.get(record.canonical, {})
        dn = entry.get("donor_number")
        dm = entry.get("dipole_moment")
        hba = entry.get("hba")
        if hba is None:
            hba = int(descriptors(record.graph)[hba_position])
        record.donor_number = dn
        record.dipole_moment = dm
        record.hba = hba
        if dn is None or dm is None:
            drops["missing_property"] = drops.get("missing_property", 0) + 1
            continue
        if dn >= thresholds.dn_min and dm >= thresholds.dm_min and hba >= thresholds.ha_min:
            survivors.append(record)
        else:
            drops["below_property_threshold"] = (
                drops.get("below_property_threshold", 0) + 1
            )
    return survivors, drops


def tier_cas(
    records: list[PoolRecord], table: dict[str, str]
) -> tuple[list[PoolRecord], dict[str, int]]:
    survivors: list[PoolRecord] = []
    drops: dict[str, int] = {}
    for record in records:
        cas = table.get(record.canonical) or record.cas
        if cas:
            record.cas = cas
            survivors.append(record)
        else:
            drops["no_cas_code"] = drops.get("no_cas_code", 0) + 1
    return survivors, drops


def run_funnel(config: FunnelConfig) -> ScreeningReport:
    """Execute the five tiers in order and assemble the report.

    All configured inputs are loaded (and validated) before tier 1 runs;
    any load failure aborts the whole run.
    """
    parsed: dict = {}  # shared by the pool and its two tables, then dropped
    pool = load_pool(config.pool, parsed)
    for record in pool.records:
        # A canonical string is a fixed point of parse-and-canonicalize, so
        # table rows keyed by canonical strings reuse the pool's graphs.
        parsed.setdefault(record.canonical, record.graph)
    registry = load_registry(config.registry)
    model = load_model(config.model)
    pipeline = selection.SelectionPipeline.load(config.pipeline)
    keyset = None
    if "K" in config.blocks:
        keyset = load_keyset(config.keyset) if config.keyset else default_keyset()
    latents = load_latents(config.latents) if config.latents else None
    prop_table = (
        load_property_table(config.properties, parsed) if config.properties else {}
    )
    cas_table = load_cas_table(config.cas, parsed) if config.cas else {}
    del parsed

    records = list(pool.records)
    tiers: list[TierOutcome] = []

    def run_tier(name, func, *args) -> list[PoolRecord]:
        nonlocal records
        survivors, drops = func(records, *args)
        tiers.append(
            TierOutcome(
                name=name,
                input_count=len(records),
                survivor_count=len(survivors),
                drops=drops,
            )
        )
        records = survivors
        return survivors

    run_tier(
        "vocabulary",
        tier_vocab,
        config.vocabulary_elements,
        latents,
        config.require_latent,
    )
    run_tier("scaffold", tier_scaffold, registry)
    run_tier(
        "rank",
        tier_rank,
        model,
        pipeline,
        config.blocks,
        keyset,
        latents,
        config.top_fraction,
    )
    run_tier("properties", tier_properties, prop_table, config.thresholds)
    run_tier("cas", tier_cas, cas_table)

    final = tuple(
        sorted(records, key=lambda r: (-(r.predicted_pce or 0.0), r.canonical))
    )
    return ScreeningReport(
        pool_size=len(pool.records),
        failed_rows=pool.parse_failures,
        merged_duplicates=pool.merged_duplicates,
        tiers=tuple(tiers),
        final=final,
        config_echo=config.raw,
    )
