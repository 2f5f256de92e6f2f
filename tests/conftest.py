"""A failing hypothesis example prints its ``@reproduce_failure`` blob, so a
failure seen in CI reproduces locally."""

from hypothesis import settings

settings.register_profile("privmf", print_blob=True)
settings.load_profile("privmf")
