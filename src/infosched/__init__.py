"""Open-loop sensor transmission-rate schedules for continuous-discrete
Kalman filtering with Poisson measurement arrivals.

Design a rate table by optimizing the information-form surrogate, then
certify it: the inverted information surrogate and the covariance surrogate
bracket the Monte Carlo mean of the exact filter from below and above.

Import each public name from the module that defines it (model, riccati,
surrogate, cdkf, montecarlo, optimize, bounds, cli); its __all__ lists it.
"""

__version__ = "0.1.0"
