"""Analytic models of epidemic routing (Zhang, Neglia, Kurose & Towsley).

The paper leans on reference [8] — "Performance modeling of epidemic
routing" — for the claim that epidemic protocols reach minimum delivery
delay at the cost of resources. This package implements those classical
fluid/Markov results so the simulator can be cross-validated against
theory:

* :func:`~repro.analytic.epidemic_ode.infected_fraction` — the logistic
  growth of the number of bundle holders under pairwise meeting rate β.
* :func:`~repro.analytic.epidemic_ode.delivery_cdf` /
  :func:`~repro.analytic.epidemic_ode.mean_delivery_delay` — the delivery
  delay law of a single bundle under epidemic relaying.
* :func:`~repro.analytic.epidemic_ode.direct_mean_delay` — the
  direct-transmission baseline (the lower bound every TTL-crippled variant
  degenerates to).
* :func:`~repro.analytic.meeting_rate.estimate_meeting_rate` — β estimated
  from a contact trace, so theory and simulation share inputs.

The validation tests in ``tests/analytic`` check the simulator's pure
epidemic spreading and delay against these curves on homogeneous traces.

Beyond validation, the models are a production backend: the **surrogate
engine** (:mod:`repro.analytic.surrogate`) runs whole sweep cells on the
mean-field curves (``engine="ode"`` on a scenario), and the
**cross-validation gate** (:mod:`repro.analytic.calibration`) anchors each
extrapolation against small event-driven runs before it is trusted.
"""

from repro.analytic.calibration import (
    CrossValidationReport,
    IncompleteReferenceGridError,
    SurrogateAccuracyError,
    cross_validate_scenario,
)
from repro.analytic.epidemic_ode import (
    delivery_cdf,
    direct_mean_delay,
    infected_count_markov,
    infected_fraction,
    mean_delivery_delay,
)
from repro.analytic.meeting_rate import estimate_meeting_rate, pairwise_meeting_rates
from repro.analytic.surrogate import (
    AnalyticContactModel,
    UnsupportedProtocolError,
    holder_curves,
    make_analytic_model,
    surrogate_run,
    transmission_coins,
)

__all__ = [
    "infected_fraction",
    "infected_count_markov",
    "delivery_cdf",
    "mean_delivery_delay",
    "direct_mean_delay",
    "estimate_meeting_rate",
    "pairwise_meeting_rates",
    "AnalyticContactModel",
    "UnsupportedProtocolError",
    "holder_curves",
    "make_analytic_model",
    "surrogate_run",
    "transmission_coins",
    "CrossValidationReport",
    "SurrogateAccuracyError",
    "IncompleteReferenceGridError",
    "cross_validate_scenario",
]
