"""Golden digests of a tiny seeded run: the server parameters after each
training stage and the evaluation report must match committed values.

Seeded runs are bit-deterministic, so any change that alters numerics
(summation order, an extra rounding, a different op sequence) changes a
digest here. The values were recorded with numpy 2.4 on x86-64 OpenBLAS;
a deliberate numerics change must re-record them and say why.
"""

import hashlib
import json

from fdglab import config as cf
from fdglab import evalhub as ev
from fdglab import fed


def small_cfg(**overrides):
    base = dict(classes=3, n_domains=3, shots=4, feature_dim=16,
                shift_strength=0.5, n_clients=2, m1=2, m2=2, d=8, d_tok=8,
                tau=0.05, lr_prompt=0.05, lr_gan=1e-3, gan_hidden=16,
                z_dim=4, batch_size=8, epochs=2, z_samples=2)
    base.update(overrides)
    return cf.ExperimentConfig(**base)


def entries_digest(entries) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(entries):
        arr = entries[name]
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def report_digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def staged_digests(mode: str) -> dict[str, str]:
    cfg = small_cfg(prompt_mode=mode)
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    out = {}
    trainer.run_stage1()
    out["stage1"] = entries_digest(trainer.server_entries())
    if mode != "wgm":
        trainer.run_stage2()
        out["stage2"] = entries_digest(trainer.server_entries())
    model = ev.InferenceModel.from_trainer(trainer)
    out["report"] = report_digest(ev.evaluate(model, ds, 0, seed=cfg.seed_data,
                                              fingerprint=cf.config_hash(cfg)))
    return out


GOLDEN = {
    "dsp": {
        "stage1": "37059606f8ac63882d61cff1c36ac318",
        "stage2": "a32b13164e42934501fb6831b30347c5",
        "report": "21a2b5d902b652ac4218f4b45f31262f",
    },
    "wgm": {
        # same seeds and stage 1 as dsp, so the same parameters
        "stage1": "37059606f8ac63882d61cff1c36ac318",
        "report": "db928167fc4aaa5109b40fe36c130e82",
    },
}


def test_dsp_digests_match_golden():
    assert staged_digests("dsp") == GOLDEN["dsp"]


def test_wgm_digests_match_golden():
    assert staged_digests("wgm") == GOLDEN["wgm"]
