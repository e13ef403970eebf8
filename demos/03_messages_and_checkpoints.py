"""Wire format and checkpoints: what actually crosses the network.

Client uploads and server checkpoints share one binary frame: magic,
version (2), round, sender, sorted named float32 arrays, and an 8-byte
blake2b digest of everything before it. Version-1 frames, closed by an
FNV-1a 64 checksum, still load. A single flipped byte anywhere is caught
at parse time, before any entry is decoded. Server state saved as a
frame restores bit-exactly, so an evaluation resumed from a checkpoint
matches the live model.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from fdglab import config as cf
from fdglab import datagen as dg
from fdglab import evalhub as ev
from fdglab import fed

rng = np.random.default_rng(0)
msg = fed.ParamMessage(sender=3, round=17, entries={
    "v": rng.normal(size=(2, 8)).astype(np.float32),
    "u/0": rng.normal(size=(2, 8)).astype(np.float32),
})
blob = fed.serialize_message(msg)
back = fed.deserialize_message(blob)
print(f"frame is {len(blob)} bytes; round-trip bit-exact: "
      f"{all(back.entries[n].tobytes() == msg.entries[n].tobytes() for n in msg.names())}")

corrupt = bytearray(blob)
corrupt[len(corrupt) // 2] ^= 0x01
try:
    fed.deserialize_message(bytes(corrupt))
except fed.MessageChecksumError as exc:
    print(f"one flipped byte: rejected ({exc})")

# now a real checkpoint: train, save the server state, restore it fresh
cfg = replace(cf.desk_preset(),
              classes=3, n_domains=3, shots=6, feature_dim=16,
              n_clients=2, d=16, d_tok=8, gan_hidden=32, z_dim=4,
              batch_size=8, epochs=4)
ds = dg.gen_dataset(cfg.classes, cfg.n_domains, cfg.shots,
                    cfg.feature_dim, cfg.shift_strength, seed=cfg.seed_data)

trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
trainer.run_all()
ckpt = fed.ParamMessage(sender=fed.SERVER_SENDER,
                        round=trainer.agg_events - 1,
                        entries=trainer.server_entries())
live = ev.evaluate(ev.InferenceModel.from_trainer(trainer), ds, 0)

resumed = fed.FederatedTrainer(cfg, ds, target_domain=0)  # untrained scaffold
with tempfile.TemporaryDirectory() as tmp:
    path = fed.save_message(ckpt, Path(tmp) / "final.msg")
    print(f"checkpoint: {sorted(ckpt.entries)[:4]} ... "
          f"({len(ckpt.entries)} arrays, {path.stat().st_size} bytes)")
    resumed.apply_checkpoint(fed.load_message(path).entries)
restored = ev.evaluate(ev.InferenceModel.from_trainer(resumed), ds, 0)

print(f"live accuracy {live.accuracy:.3f} == restored accuracy "
      f"{restored.accuracy:.3f}: {live.accuracy == restored.accuracy}")
