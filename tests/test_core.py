import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridreid import (
    OUTLIER,
    ConfigError,
    FeatureSet,
    FileFormatError,
    FileIOError,
    NumericError,
    PseudoLabeling,
    TrainConfig,
    l2_normalize,
    load_features,
    save_features,
    validate_config,
)
from hybridreid.core import FEATURE_MAGIC, FEATURE_VERSION, _atomic_open

from conftest import make_feature_set
from oracles import ref_members_of


class TestL2Normalize:
    def test_unit_norm_rows(self, rng):
        x = rng.standard_normal((20, 7))
        out = l2_normalize(x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_zero_vector_stays_finite(self):
        out = l2_normalize(np.zeros(5))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 0.0)

    def test_single_vector(self):
        out = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant_direction(self, x):
        out = l2_normalize(x)
        assert np.all(np.isfinite(out))
        norms = np.linalg.norm(out, axis=-1)
        assert np.all(norms <= 1.0 + 1e-9)
        # rows that are not tiny come out unit-norm
        big = np.linalg.norm(x, axis=-1) > 1e-3
        assert np.allclose(norms[big], 1.0, atol=1e-9)


class TestPseudoLabeling:
    def test_counts(self):
        lab = PseudoLabeling(assignment=[0, 1, OUTLIER, 0, 1], num_clusters=2)
        assert lab.num_samples == 5
        assert lab.num_outliers == 1
        assert [m.tolist() for m in lab.members] == [[0, 3], [1, 4]]
        assert np.flatnonzero(lab.assignment != OUTLIER).tolist() == [0, 1, 3, 4]
        lab.validate()

    @settings(max_examples=50, deadline=None)
    @given(
        assignment=st.lists(st.integers(OUTLIER, 6), max_size=60),
        num_clusters=st.integers(0, 7),
    )
    def test_members_match_per_cluster_scan(self, assignment, num_clusters):
        lab = PseudoLabeling(assignment=assignment, num_clusters=num_clusters)
        assert len(lab.members) == num_clusters
        for i, members in enumerate(lab.members):
            assert members.dtype == np.int64
            assert members.tolist() == ref_members_of(assignment, i)

    def test_validate_rejects_out_of_range(self):
        lab = PseudoLabeling(assignment=[0, 2], num_clusters=2)
        with pytest.raises(ValueError):
            lab.validate()

    def test_validate_rejects_empty_cluster_ids(self):
        lab = PseudoLabeling(assignment=[0, 0, OUTLIER], num_clusters=2)
        with pytest.raises(ValueError):
            lab.validate()


class TestFeatureFile:
    def test_round_trip_bitwise(self, rng, tmp_path):
        fs = make_feature_set(rng)
        path = tmp_path / "x.feat"
        save_features(fs, path)
        back = load_features(path)
        assert fs.features.dtype == back.features.dtype == np.float32
        assert fs.features.tobytes() == back.features.tobytes()
        assert back.ids.tolist() == fs.ids.tolist()
        assert back.cams.tolist() == fs.cams.tolist()

    def test_load_is_zero_copy(self, rng, tmp_path):
        path = tmp_path / "x.feat"
        save_features(make_feature_set(rng), path)
        back = load_features(path)
        # all three columns are views of one record array over the file's bytes
        records = back.features.base
        assert back.ids.base is records and back.cams.base is records
        assert isinstance(records.base, bytes)
        assert not back.features.flags.writeable

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        fs = make_feature_set(rng, cameras=3)
        fs = FeatureSet(fs.features, fs.ids - 2, fs.cams + 2**31)
        path = tmp_path / "x.feat"
        save_features(fs, path)
        before = path.read_bytes()
        save_features(load_features(path), path)
        assert path.read_bytes() == before

    def test_empty_list_round_trip(self, tmp_path):
        path = tmp_path / "empty.feat"
        save_features(FeatureSet(np.zeros((0, 3)), [], []), path)
        back = load_features(path)
        assert back.features.shape == (0, 3)
        assert back.ids.size == back.cams.size == 0

    def test_deterministic_bytes(self, rng, tmp_path):
        fs = make_feature_set(rng)
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        save_features(fs, p1)
        save_features(fs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_bad_version(self, rng, tmp_path):
        path = tmp_path / "v.feat"
        save_features(make_feature_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "t.feat"
        save_features(make_feature_set(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FileIOError):
            load_features(path)

    def test_trailing_bytes(self, rng, tmp_path):
        path = tmp_path / "t.feat"
        save_features(make_feature_set(rng), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileIOError):
            load_features(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "s.feat"
        path.write_bytes(FEATURE_MAGIC + b"\x01")
        with pytest.raises(FileIOError):
            load_features(path)

    def test_records_without_feature_width_rejected(self, tmp_path):
        path = tmp_path / "w.feat"
        path.write_bytes(FEATURE_MAGIC + np.array([1], "<u4").tobytes()
                         + np.array([2], "<u8").tobytes() + bytes(4 + 24))
        with pytest.raises(FileFormatError):
            load_features(path)

    def test_nan_payload_rejected_on_load(self, rng, tmp_path):
        fs = make_feature_set(rng, num_identities=1, per_identity=2, dims=4)
        path = tmp_path / "n.feat"
        save_features(fs, path)
        blob = bytearray(path.read_bytes())
        # first float of the first record
        blob[20:24] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NumericError):
            load_features(path)

    def test_nan_feature_rejected_on_save(self, tmp_path):
        fs = FeatureSet(np.array([[0.0, 1.0], [1.0, np.nan]]), [0, 1], [0, 0])
        with pytest.raises(NumericError, match="sample 1"):
            save_features(fs, tmp_path / "n.feat")

    def test_negative_camera_rejected_on_save(self, tmp_path):
        # and every other id the u32 column cannot hold exactly
        for cam in (-1, 2**32 + 1, 2**32, 1.7, np.nan):
            fs = FeatureSet(np.ones((2, 2)), [0, 1], [0, cam])
            with pytest.raises(ValueError, match="sample 1"):
                save_features(fs, tmp_path / "c.feat")
            assert os.listdir(tmp_path) == []

    def test_ragged_features_rejected(self):
        with pytest.raises(ValueError):
            FeatureSet([np.zeros(3), np.zeros(4)], [0, 1], [0, 0])
        with pytest.raises(ValueError):
            FeatureSet(np.zeros(3), [0, 1, 2], [0, 0, 0])
        with pytest.raises(ValueError):
            FeatureSet(np.zeros((2, 3)), [0], [0, 0])
        with pytest.raises(ValueError):
            FeatureSet(np.zeros((2, 3)), [0, 1], [0])

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_features(tmp_path / "absent.feat")

    def test_negative_identity_survives(self, tmp_path):
        fs = FeatureSet(np.ones((1, 2)), [-5], [1])
        path = tmp_path / "neg.feat"
        save_features(fs, path)
        assert load_features(path).ids.tolist() == [-5]


@st.composite
def corrupt_features(draw):
    """Feature-file bytes a loader must reject, with the error it must raise.
    The file holds at most a few small records whatever its header claims,
    so a case can allocate much only if a header field is trusted before
    the size check."""
    kind = draw(st.sampled_from(
        ["short", "long", "count_past_end", "zero_width", "huge_width", "magic",
         "version"]))
    n, dims = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    magic, version, payload = FEATURE_MAGIC, FEATURE_VERSION, n * (4 * dims + 12)
    cut, error = None, FileFormatError
    if kind == "short":
        cut, error = draw(st.integers(0, 20 + payload - 1)), FileIOError
    elif kind == "long":
        payload, error = payload + draw(st.integers(1, 16)), FileIOError
    elif kind == "count_past_end":
        n, error = draw(st.integers(n + 1, 2**64 - 1)), FileIOError
    elif kind == "zero_width":
        n, dims = draw(st.integers(1, 2**64 - 1)), 0
    elif kind == "huge_width":
        # a record of 2**29 or more floats exceeds numpy's 2**31 - 1 byte
        # dtype limit; only N = 0 with no payload fits such a file's size
        dims, payload = draw(st.integers(2**29, 2**32 - 1)), draw(st.integers(0, 64))
        error = FileFormatError if n == payload == 0 else FileIOError
    elif kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != magic))
    else:
        version = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != version))
    header = b"".join([magic, np.uint32(version).tobytes(), np.uint64(n).tobytes(),
                       np.uint32(dims).tobytes()])
    return (header + bytes(payload))[:cut], error


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=corrupt_features())
def test_corrupt_feature_file_rejected_before_allocating(tmp_path, case):
    blob, error = case
    path = tmp_path / "corrupt.feat"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestTrainConfig:
    def test_defaults_validate(self):
        validate_config(TrainConfig())

    def test_dict_round_trip(self):
        cfg = TrainConfig(mu=0.25, hidden_dims=(32, 16), epochs=3)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_round_trip(self, tmp_path):
        cfg = TrainConfig(tau_c=0.1, seed=9)
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        assert TrainConfig.from_json(path) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"mu": 0.5, "learning_rate": 0.1})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            TrainConfig.from_json(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError):
            TrainConfig.from_json(path)

    def test_validation_names_every_bad_field(self):
        cfg = TrainConfig(mu=1.5, tau_c=-1.0, epochs=0)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        msg = str(exc.value)
        assert "mu" in msg and "tau_c" in msg and "epochs" in msg

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mu", -0.1),
            ("mu", 1.1),
            ("alpha", 2.0),
            ("tau_ins", 0.0),
            ("lr", 0.0),
            ("weight_decay", -1e-4),
            ("lr_decay_factor", 0.0),
            ("lr_decay_factor", 1.5),
            ("dbscan_eps", -0.45),
            ("dbscan_eps", 1.0),
            ("dbscan_min_pts", 0),
            ("kreciprocal_k", 0),
            ("num_identities_per_batch", 0),
            ("instances_per_identity", 0),
            ("slots_per_cluster", 0),
            ("seed", -1),
            ("hidden_dims", ()),
            ("hidden_dims", (0,)),
            ("mu", float("nan")),
            ("lr", "0.1"),
            ("dbscan_eps", "0.4"),
            ("mu", None),
            ("hidden_dims", 5),
            ("hidden_dims", (16, 8.0)),
            ("seed", True),
            ("epochs", 2.0),
        ],
    )
    def test_single_field_violations(self, field, value):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert field in str(exc.value)

    def test_numbers_of_either_kind_accepted(self):
        validate_config(TrainConfig(mu=1, lr=np.float32(1e-3), epochs=np.int64(3),
                                    hidden_dims=[np.int32(8)]))

    def test_kreciprocal_k_checked_against_sample_count(self):
        cfg = TrainConfig(kreciprocal_k=30, num_identities_per_batch=2)
        validate_config(cfg, num_samples=31)
        for n in (30, 2):
            with pytest.raises(ConfigError, match="kreciprocal_k"):
                validate_config(cfg, num_samples=n)

    def test_batch_identities_checked_against_cluster_bound(self):
        # at most r N // (min_pts + r) clusters, r = max(1, min_pts - 1)
        for min_pts, n_id, fits, short in ((4, 13, 31, 30), (2, 10, 30, 29),
                                          (1, 10, 20, 19)):
            cfg = TrainConfig(kreciprocal_k=5, dbscan_min_pts=min_pts,
                              num_identities_per_batch=n_id)
            validate_config(cfg, num_samples=fits)
            with pytest.raises(ConfigError, match="num_identities_per_batch"):
                validate_config(cfg, num_samples=short)

    def test_removed_jaccard_blend_field_rejected(self):
        with pytest.raises(ConfigError, match="jaccard_blend"):
            TrainConfig.from_dict({"jaccard_blend": 0.0})

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestAtomicOpen:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with _atomic_open(path, newline="") as fh:
                fh.write("new\n")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"old")
        with _atomic_open(path, "wb") as fh:
            fh.write(b"new bytes")
        assert path.read_bytes() == b"new bytes"
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with _atomic_open(tmp_path / "absent" / "eval.json") as fh:
                fh.write("{}")
        assert os.listdir(tmp_path) == []
