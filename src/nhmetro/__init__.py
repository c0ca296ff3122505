"""Parameter estimation under non-Hermitian Hamiltonian dynamics.

Core pieces: dense complex linear algebra (`linalg`), a catalog of
parametric Hamiltonians with analytic derivatives and closed-form references
(`models`), non-unitary evolution and post-selection statistics
(`dynamics`), quantum Fisher information by several independent routes
(`fisher`), optimal-measurement diagnostics (`measure`), Monte-Carlo
maximum-likelihood estimation (`estimate`), a Hermitian two-qubit embedding
of the non-unitary dynamics (`dilation`), and a CSV-emitting experiment
runner (`cli`).
"""

from .models import affine_model, ep_demo_model, kappa_model, pt_model

__all__ = ["pt_model", "kappa_model", "ep_demo_model", "affine_model"]

__version__ = "0.1.0"
