"""Text-VAE training and evaluation toolkit.

Trains LSTM variational autoencoders on sentence corpora with the usual
posterior-collapse countermeasures (KL annealing, free bits, decoder
pretraining) plus fraternal-dropout decoder regularization, and evaluates
them with NLL, PPL, active units, mutual information, and BLEU.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, Tape, grad_check, tape  # noqa: F401
