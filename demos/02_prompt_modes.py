"""The four prompt modes on one seed, side by side.

dsp trains shared + per-domain contexts and generates contexts at
inference; csp drops the per-domain rows; hdp freezes the handcrafted
token template as its context and skips stage 1, but still trains the
federated GAN on the template and scores with its output; wgm reuses
the tuned prompts directly without a generator. At this miniature scale
one seed is noisy, but the full pipeline should usually lead and the
handcrafted template trail.
"""

from dataclasses import replace

from fdglab import config as cf
from fdglab import evalhub as ev

base = replace(cf.desk_preset(),
               classes=4, n_domains=3, shots=8, feature_dim=24,
               n_clients=2, d=32, d_tok=16, gan_hidden=32, z_dim=4,
               batch_size=8, epochs=20,
               seed_data=1, seed_model=1, seed_noise=1)

print(f"{'mode':<6} {'mean acc':>9}  per-domain accuracy")
for mode in ("dsp", "csp", "wgm", "hdp"):
    cfg = replace(base, prompt_mode=mode)
    reports = ev.leave_one_domain_out(cfg)
    merged = ev.merge_reports(reports)
    cells = ", ".join(f"{r.rows[0]['target_domain']}: "
                      f"{r.rows[0]['accuracy']:.3f}" for r in reports)
    print(f"{mode:<6} {merged.accuracy:>9.3f}  {cells}")

print(f"\nchance is {1 / base.classes:.3f}; every report above embeds "
      f"config hash {cf.config_hash(replace(base, prompt_mode='hdp'))!r} "
      f"style fingerprints so tables stay traceable to exact settings")
