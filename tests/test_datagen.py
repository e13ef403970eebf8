"""Synthetic dataset tests: generation determinism and invariants, the
domain-shift oracle (nearest-centroid transfer gap), and the on-disk
manifest/blob format including its failure contracts."""

import json
import struct

import numpy as np
import pytest

from fdglab import datagen as dg


def nearest_centroid_accuracy(train_x, train_y, test_x, test_y) -> float:
    """Accuracy of a nearest-class-centroid classifier; shift oracle."""
    classes = np.unique(train_y)
    cents = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])
    d2 = ((test_x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(d2, axis=1)]
    return float((pred == test_y).mean())


def test_generation_is_deterministic():
    a = dg.gen_dataset(k=5, n_domains=4, shots=16, shift_strength=0.8, seed=3)
    b = dg.gen_dataset(k=5, n_domains=4, shots=16, shift_strength=0.8, seed=3)
    assert a.equal(b)
    c = dg.gen_dataset(k=5, n_domains=4, shots=16, shift_strength=0.8, seed=4)
    assert not a.equal(c)


def test_sample_counts_match_shots():
    ds = dg.gen_dataset(k=5, n_domains=4, shots=16, seed=0)
    assert ds.n_samples == 320
    for d in range(4):
        for c in range(5):
            n = int(((ds.domain_ids == d) & (ds.class_ids == c)).sum())
            assert n == 16


def test_zero_strength_transforms_are_identity():
    for t in dg.make_transforms(4, 16, shift_strength=0.0, seed=0):
        assert np.array_equal(t.rotation, np.eye(16))
        assert not t.shift.any()
        assert t.scale == 1.0


def test_rotations_are_orthogonal():
    for strength in (0.3, 0.8, 1.0):
        for t in dg.make_transforms(4, 32, shift_strength=strength, seed=1):
            err = np.abs(t.rotation.T @ t.rotation - np.eye(32)).max()
            assert err < 1e-5


def test_families_share_classes_not_centroids():
    a = dg.gen_dataset(k=3, n_domains=2, shots=4, seed=0, family="alpha")
    b = dg.gen_dataset(k=3, n_domains=2, shots=4, seed=0, family="beta")
    assert a.classes == b.classes
    assert not np.array_equal(a.features, b.features)
    with pytest.raises(ValueError):
        dg.gen_dataset(k=3, n_domains=2, shots=4, family="gamma")


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        dg.gen_dataset(k=1, n_domains=4, shots=16)
    with pytest.raises(ValueError):
        dg.gen_dataset(k=5, n_domains=1, shots=16)
    with pytest.raises(ValueError):
        dg.gen_dataset(k=5, n_domains=4, shots=0)
    with pytest.raises(ValueError):
        dg.gen_dataset(k=5, n_domains=4, shots=4, shift_strength=1.5)


def test_shift_oracle_separable_and_centroids_move():
    # classes stay nearest-centroid separable at full strength, while the
    # endpoint domains' same-class centroids drift apart roughly linearly
    # in shift_strength (oracle: ~3 sampling noise at 0, ~13 at 0.4, ~25
    # at 0.8 for these sizes, stable across seeds)
    def displacement(ds):
        last = len(ds.domains) - 1
        gaps = []
        for k in range(len(ds.classes)):
            a = ds.features[(ds.domain_ids == 0) & (ds.class_ids == k)]
            b = ds.features[(ds.domain_ids == last) & (ds.class_ids == k)]
            gaps.append(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))
        return float(np.mean(gaps))

    ds8 = dg.gen_dataset(k=5, n_domains=4, shots=16, shift_strength=0.8, seed=0)
    for target in range(4):
        src = ds8.domain_ids != target
        tx, ty = ds8.features[src], ds8.class_ids[src]
        assert nearest_centroid_accuracy(tx, ty, tx, ty) > 0.95
    d0 = displacement(dg.gen_dataset(k=5, n_domains=4, shots=16,
                                     shift_strength=0.0, seed=0))
    d4 = displacement(dg.gen_dataset(k=5, n_domains=4, shots=16,
                                     shift_strength=0.4, seed=0))
    d8 = displacement(ds8)
    assert d0 < 6.0
    assert d4 > 2.0 * d0
    assert d8 > 1.5 * d4


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


@pytest.fixture
def ds():
    return dg.gen_dataset(k=5, n_domains=4, shots=16, shift_strength=0.5, seed=7)


def test_save_load_round_trip(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    back = dg.load_dataset(root)
    assert back.equal(ds)
    assert back.provenance == ds.provenance
    assert back.features.dtype == np.float32


def test_truncated_blob_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    blob = root / "domain_0.f32"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(dg.DatasetChecksumError):
        dg.load_dataset(root)


def test_flipped_byte_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    blob = root / "domain_1.f32"
    data = bytearray(blob.read_bytes())
    data[100] ^= 0xFF
    blob.write_bytes(bytes(data))
    with pytest.raises(dg.DatasetChecksumError):
        dg.load_dataset(root)


def test_unknown_version_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["version"] = 99
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetVersionError):
        dg.load_dataset(root)


def test_schema_violation_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["classes"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetSchemaError):
        dg.load_dataset(root)


def test_header_length_mismatch_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    blob = root / "domain_0.f32"
    data = bytearray(blob.read_bytes())
    # claim one extra row, then re-stamp the checksum so only the header lies
    rows, dim = struct.unpack_from("<II", data)
    struct.pack_into("<II", data, 0, rows + 1, dim)
    blob.write_bytes(bytes(data))
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["checksums"]["domain_0.f32"] = dg._digest(bytes(data))
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError):
        dg.load_dataset(root)


def test_dim_mismatch_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    # rewrite one domain's blob with a narrower dim, checksum kept honest;
    # the blobs then disagree on dim, and the odd one out is named
    narrow = np.zeros((4, 8), dtype=np.float32)
    blob = dg._pack_blob(narrow)
    (root / "domain_2.f32").write_bytes(blob)
    labels = np.zeros(4, dtype="<u2").tobytes()
    (root / "domain_2.f32.labels").write_bytes(labels)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["checksums"]["domain_2.f32"] = dg._digest(blob)
    manifest["checksums"]["domain_2.f32.labels"] = dg._digest(labels)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError,
                       match="domain 2 .*blob dim 8 != manifest feature_dim 64"):
        dg.load_dataset(root)


def test_listed_domain_without_samples_rejected(tmp_path, ds):
    keep = ds.domain_ids != 1
    with pytest.raises(ValueError, match=r"domain 1 \(domain_1\) has no samples"):
        dg.DomainDataset(
            name=ds.name, feature_dim=ds.feature_dim, domains=ds.domains,
            classes=ds.classes, features=ds.features[keep],
            domain_ids=ds.domain_ids[keep], class_ids=ds.class_ids[keep])
    # on disk, a domain whose count is 0 fails the manifest schema
    root = dg.save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["domains"][1]["count"] = 0
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetSchemaError, match="minimum of 1"):
        dg.load_dataset(root)


@pytest.mark.parametrize("stray", [-1, 1, 9])
def test_sample_domain_not_listed_rejected(ds, stray):
    # domain 1 is dropped from the list while its samples stay, relabelled
    # to an id below, between or above the listed ones (0, 2, 3)
    domains = [(d, name) for d, name in ds.domains if d != 1]
    ids = np.where(ds.domain_ids == 1, stray, ds.domain_ids)
    with pytest.raises(ValueError, match="sample domain_id out of range"):
        dg.DomainDataset(
            name=ds.name, feature_dim=ds.feature_dim, domains=domains,
            classes=ds.classes, features=ds.features, domain_ids=ids,
            class_ids=ds.class_ids)


def test_label_count_mismatch_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    side = root / "domain_0.f32.labels"
    data = side.read_bytes()[:-2]
    side.write_bytes(data)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["checksums"]["domain_0.f32.labels"] = dg._digest(data)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError):
        dg.load_dataset(root)


def test_odd_length_label_sidecar_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    side = root / "domain_0.f32.labels"
    data = side.read_bytes()[:-1]
    side.write_bytes(data)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["checksums"]["domain_0.f32.labels"] = dg._digest(data)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError, match="u16 labels"):
        dg.load_dataset(root)


def test_repeated_domain_ids_rejected(tmp_path, ds):
    root = dg.save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["domains"][-1]["id"] = manifest["domains"][-2]["id"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError, match="repeated domain ids"):
        dg.load_dataset(root)


@pytest.mark.parametrize("name, match", [
    ("class_00", "class 1: repeated name 'class_00'"),
    ("", "class 1: empty name ''"),
])
def test_bad_class_names_rejected(tmp_path, ds, name, match):
    root = dg.save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["classes"][1] = name
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(dg.DatasetFormatError, match=match):
        dg.load_dataset(root)


@pytest.mark.parametrize("outside", ["absolute", "parent"])
def test_blob_outside_dataset_rejected(tmp_path, ds, monkeypatch, outside):
    # a manifest naming another directory's blob, with that blob's own
    # checksums, is refused before any blob is read
    root = dg.save_dataset(ds, tmp_path / "ds")
    other = dg.save_dataset(ds, tmp_path / "other")
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["domains"][0]
    name = (str(other / entry["blob"]) if outside == "absolute"
            else f"../other/{entry['blob']}")
    for suffix in ("", ".labels"):
        manifest["checksums"][name + suffix] = \
            manifest["checksums"][entry["blob"] + suffix]
    entry["blob"] = name
    (root / "manifest.json").write_text(json.dumps(manifest))
    reads = []
    monkeypatch.setattr(dg, "_checked_read", lambda *a: reads.append(a))
    with pytest.raises(dg.DatasetFormatError, match="not a bare file name"):
        dg.load_dataset(root)
    assert reads == []
