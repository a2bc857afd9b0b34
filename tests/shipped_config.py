"""The shipped reference configuration, read through the real loader, so
the unknown-key check runs on it too."""

from importlib import resources

from qkdstation.config import load_config


def load_reference():
    return load_config(resources.files("qkdstation.data") / "reference.ini")
