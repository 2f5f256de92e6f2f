"""Privacy-preserving distributed collaborative filtering.

Clients keep ratings and user factors local; a server holds only item
factors and receives randomized gradient messages. A two-stage randomized
response hides which items a user rated, with per-round
differential-privacy budgets calibrated in closed form. Fake errors for
unrated items are drawn from N(mu, sigma) truncated to (-alpha, alpha):
``eps_g`` bounds their density over that model, inside the window. Real
errors are not truncated.
"""

__version__ = "0.1.0"
