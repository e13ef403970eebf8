"""Desk-scale federated domain-generalization lab.

Two-stage pipeline over a frozen dual encoder and synthetic multi-domain
data: per-domain soft prompt tuning (stage 1), conditional-GAN prompt
generation (stage 2), momentum-smoothed federated aggregation between
rounds, and generator-driven inference on held-out domains.
"""

from . import config
from . import datagen
from . import dsp
from . import encoder
from . import evalhub
from . import fed
from . import numcore
from . import promptgan

__version__ = "0.1.0"

__all__ = ["cli", "config", "datagen", "dsp", "encoder", "evalhub", "fed",
           "numcore", "promptgan"]
