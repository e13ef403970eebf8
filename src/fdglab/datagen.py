"""Synthetic multi-domain datasets with controllable shift, plus the
on-disk manifest/blob format.

Samples are class-conditional Gaussians pushed through a per-domain
affine transform (rotation + shift + scale). All domains of a dataset
share one rotation plane bundle and one shift direction; only a scalar
coefficient varies per domain. That keeps the family of domains
one-dimensional, so a held-out domain is related to the sources rather
than arbitrary, while still producing a measurable in-domain versus
out-of-domain gap at moderate strengths.

On-disk format: a manifest.json naming per-domain feature blobs (u32 row
count, u32 dim, then row-major little-endian f32) with u16 label
sidecars, all checksummed. load_dataset reads any directory in this
format, whether save_dataset or another program wrote it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST_VERSION = 1

# transform magnitudes at shift_strength = 1 for a domain coefficient of 1;
# calibrated so prompt transfer through the frozen encoder degrades visibly
# as shift_strength rises yet stays learnable at 0.8 (larger angles scramble
# the embedding geometry so badly that no method beats chance)
THETA_MAX = 1.2  # radians, largest rotation-plane angle
SHIFT_MAX = 6.0  # L2 norm of the translation
LOG_SCALE_MAX = 0.2  # log of the isotropic scale

CENTROID_STD = 3.0

# substream ids under the data seed
_STREAM_CENTROIDS = 0
_STREAM_TRANSFORMS = 1
_STREAM_NOISE = 2

# centroid-stream offsets for the two shipped dataset families
FAMILIES = {"alpha": 0, "beta": 1}


class DatasetFormatError(ValueError):
    """Malformed on-disk dataset."""


class DatasetSchemaError(DatasetFormatError):
    """Manifest fails schema validation."""


class DatasetVersionError(DatasetFormatError):
    """Manifest version is not supported."""


class DatasetChecksumError(DatasetFormatError):
    """File contents do not match the manifest checksum."""


MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["name", "version", "feature_dim", "domains", "classes", "checksums"],
    "properties": {
        "name": {"type": "string"},
        "version": {"type": "integer"},
        "feature_dim": {"type": "integer", "minimum": 1},
        "domains": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "name", "blob", "count"],
                "properties": {
                    "id": {"type": "integer", "minimum": 0},
                    "name": {"type": "string"},
                    "blob": {"type": "string"},
                    "count": {"type": "integer", "minimum": 1},
                },
            },
        },
        "classes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "checksums": {"type": "object", "additionalProperties": {"type": "string"}},
        "provenance": {"type": "object"},
    },
}


@dataclass
class DomainTransform:
    """Affine domain map x -> scale * (x @ R.T) + shift."""

    rotation: np.ndarray  # (feature_dim, feature_dim) float64, orthogonal
    shift: np.ndarray  # (feature_dim,) float32
    scale: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.scale * (x.astype(np.float64) @ self.rotation.T)
        return (y + self.shift.astype(np.float64)).astype(np.float32)


@dataclass
class DomainDataset:
    """Immutable multi-domain classification dataset, domain-grouped."""

    name: str
    feature_dim: int
    domains: list[tuple[int, str]]
    classes: list[str]
    features: np.ndarray  # (N, feature_dim) float32
    domain_ids: np.ndarray  # (N,) int64
    class_ids: np.ndarray  # (N,) int64
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != self.feature_dim:
            raise ValueError("features must be (N, feature_dim)")
        n = self.features.shape[0]
        if self.domain_ids.shape != (n,) or self.class_ids.shape != (n,):
            raise ValueError("ids must align with features")
        # not np.unique: it loads numpy.ma, which no run otherwise needs
        present = set(self.domain_ids.tolist())
        if not present <= {d for d, _ in self.domains}:
            raise ValueError("sample domain_id out of range")
        for d, dname in self.domains:
            if d not in present:
                raise ValueError(f"domain {d} ({dname}) has no samples")
        if n and (self.class_ids.min() < 0 or self.class_ids.max() >= len(self.classes)):
            raise ValueError("sample class_id out of range")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def domain_indices(self, domain_id: int) -> np.ndarray:
        return np.nonzero(self.domain_ids == domain_id)[0]

    def equal(self, other: "DomainDataset") -> bool:
        return (
            self.name == other.name
            and self.feature_dim == other.feature_dim
            and self.domains == other.domains
            and self.classes == other.classes
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.domain_ids, other.domain_ids)
            and np.array_equal(self.class_ids, other.class_ids)
        )


def _skew_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random antisymmetric matrix with unit spectral norm."""
    a = rng.normal(0.0, 1.0, (dim, dim))
    s = (a - a.T) / 2.0
    return s / np.linalg.norm(s, 2)


def _cayley_rotation(skew_unit: np.ndarray, angle: float) -> np.ndarray:
    """Orthogonal matrix rotating the dominant plane of skew_unit by angle."""
    dim = skew_unit.shape[0]
    eye = np.eye(dim)
    if angle == 0.0:
        return eye
    t = np.tan(angle / 2.0) * skew_unit
    return np.linalg.solve(eye + t, eye - t)


def make_transforms(n_domains: int, feature_dim: int, shift_strength: float,
                    seed: int) -> list[DomainTransform]:
    """One transform per domain, sharing directions, coefficients in [-1, 1]."""
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    if not 0.0 <= shift_strength <= 1.0:
        raise ValueError("shift_strength must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_TRANSFORMS)))
    skew = _skew_direction(rng, feature_dim)
    direction = rng.normal(0.0, 1.0, feature_dim)
    direction /= np.linalg.norm(direction)
    out = []
    for d in range(n_domains):
        coeff = -1.0 + 2.0 * d / (n_domains - 1) if n_domains > 1 else 0.0
        c = shift_strength * coeff
        out.append(
            DomainTransform(
                rotation=_cayley_rotation(skew, THETA_MAX * c),
                shift=(SHIFT_MAX * c * direction).astype(np.float32),
                scale=float(np.exp(LOG_SCALE_MAX * c)),
            )
        )
    return out


def gen_dataset(k: int, n_domains: int, shots: int, feature_dim: int = 64,
                shift_strength: float = 0.0, seed: int = 0,
                family: str = "alpha") -> DomainDataset:
    """Synthetic dataset: k Gaussian class centroids, shots samples per
    (domain, class), each domain seen through its own affine transform."""
    if k < 2 or n_domains < 2 or shots < 1:
        raise ValueError("need k >= 2, n_domains >= 2, shots >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, options: {sorted(FAMILIES)}")
    cen_rng = np.random.default_rng(
        np.random.SeedSequence((seed, _STREAM_CENTROIDS, FAMILIES[family])))
    centroids = cen_rng.normal(0.0, CENTROID_STD, (k, feature_dim))
    transforms = make_transforms(n_domains, feature_dim, shift_strength, seed)

    feats, doms, labs = [], [], []
    for d in range(n_domains):
        for c in range(k):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _STREAM_NOISE, d, c)))
            x = centroids[c] + rng.normal(0.0, 1.0, (shots, feature_dim))
            feats.append(transforms[d].apply(x))
            doms.append(np.full(shots, d, dtype=np.int64))
            labs.append(np.full(shots, c, dtype=np.int64))

    return DomainDataset(
        name=f"synth-{family}-k{k}-d{n_domains}-s{shots}",
        feature_dim=feature_dim,
        domains=[(d, f"domain_{d}") for d in range(n_domains)],
        classes=[f"class_{c:02d}" for c in range(k)],
        features=np.concatenate(feats, axis=0),
        domain_ids=np.concatenate(doms),
        class_ids=np.concatenate(labs),
        provenance={"synthetic": {"seed": seed, "shift_strength": shift_strength,
                                  "shots": shots, "family": family}},
    )


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _pack_blob(features: np.ndarray) -> bytes:
    rows, dim = features.shape
    return struct.pack("<II", rows, dim) + features.astype("<f4").tobytes()


def _unpack_blob(data: bytes, path: str) -> np.ndarray:
    if len(data) < 8:
        raise DatasetFormatError(f"{path}: blob shorter than its header")
    rows, dim = struct.unpack_from("<II", data)
    want = 8 + 4 * rows * dim
    if len(data) != want:
        raise DatasetFormatError(f"{path}: blob is {len(data)} bytes, header says {want}")
    return np.frombuffer(data, dtype="<f4", offset=8).reshape(rows, dim).copy()


def save_dataset(ds: DomainDataset, path) -> Path:
    """Write manifest.json plus per-domain blobs and label sidecars."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": ds.name,
        "version": MANIFEST_VERSION,
        "feature_dim": ds.feature_dim,
        "domains": [],
        "classes": list(ds.classes),
        "checksums": {},
        "provenance": ds.provenance,
    }
    for d, dname in ds.domains:
        idx = ds.domain_indices(d)
        blob_name = f"domain_{d}.f32"
        labels_name = blob_name + ".labels"
        blob = _pack_blob(ds.features[idx])
        labels = ds.class_ids[idx].astype("<u2").tobytes()
        (root / blob_name).write_bytes(blob)
        (root / labels_name).write_bytes(labels)
        manifest["domains"].append(
            {"id": int(d), "name": dname, "blob": blob_name, "count": int(len(idx))})
        manifest["checksums"][blob_name] = _digest(blob)
        manifest["checksums"][labels_name] = _digest(labels)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return root


def _read_manifest(root: Path) -> dict:
    mpath = root / "manifest.json"
    if not mpath.is_file():
        raise DatasetFormatError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as e:
        raise DatasetSchemaError(f"{mpath}: not valid JSON: {e}") from e
    import jsonschema  # only a saved manifest needs it; ~5 MB with its deps

    try:
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
    except jsonschema.ValidationError as e:
        raise DatasetSchemaError(f"{mpath}: {e.message}") from e
    if manifest["version"] != MANIFEST_VERSION:
        raise DatasetVersionError(
            f"{mpath}: version {manifest['version']}, supported: {MANIFEST_VERSION}")
    return manifest


def _checked_read(root: Path, name: str, checksums: dict) -> bytes:
    fpath = root / name
    if not fpath.is_file():
        raise DatasetFormatError(f"missing file {fpath}")
    data = fpath.read_bytes()
    want = checksums.get(name)
    if want is None:
        raise DatasetChecksumError(f"{fpath}: no checksum in manifest")
    got = _digest(data)
    if got != want:
        raise DatasetChecksumError(f"{fpath}: checksum {got} != manifest {want}")
    return data


def load_dataset(path) -> DomainDataset:
    """Read a dataset directory back; fails loudly on any corruption."""
    root = Path(path)
    manifest = _read_manifest(root)
    dim = manifest["feature_dim"]
    ids = [entry["id"] for entry in manifest["domains"]]
    if len(set(ids)) != len(ids):
        raise DatasetFormatError(f"repeated domain ids: {ids}")
    classes = manifest["classes"]
    for i, name in enumerate(classes):
        if not name or name in classes[:i]:
            raise DatasetFormatError(
                f"class {i}: {'repeated' if name else 'empty'} name {name!r}")

    feats, doms, labs = [], [], []
    domains = []
    for entry in manifest["domains"]:
        blob_name = entry["blob"]
        features = _unpack_blob(
            _checked_read(root, blob_name, manifest["checksums"]), blob_name)
        if features.shape[1] != dim:
            raise DatasetFormatError(
                f"domain {entry['id']} ({entry['name']}): blob dim "
                f"{features.shape[1]} != manifest feature_dim {dim}")
        if features.shape[0] != entry["count"]:
            raise DatasetFormatError(
                f"domain {entry['id']}: blob has {features.shape[0]} rows, "
                f"manifest says {entry['count']}")
        raw = _checked_read(root, blob_name + ".labels", manifest["checksums"])
        if len(raw) % 2:
            raise DatasetFormatError(
                f"domain {entry['id']}: label sidecar is {len(raw)} bytes, "
                "not a whole number of u16 labels")
        labels = np.frombuffer(raw, dtype="<u2")
        if labels.shape[0] != features.shape[0]:
            raise DatasetFormatError(
                f"domain {entry['id']}: {labels.shape[0]} labels for "
                f"{features.shape[0]} rows")
        if labels.max() >= len(classes):
            raise DatasetFormatError(
                f"domain {entry['id']}: label out of range")
        feats.append(features)
        doms.append(np.full(features.shape[0], entry["id"], dtype=np.int64))
        labs.append(labels.astype(np.int64))
        domains.append((entry["id"], entry["name"]))
    return DomainDataset(
        name=manifest["name"],
        feature_dim=dim,
        domains=domains,
        classes=list(classes),
        features=np.concatenate(feats, axis=0),
        domain_ids=np.concatenate(doms),
        class_ids=np.concatenate(labs),
        provenance=manifest.get("provenance", {}),
    )
