"""Desk-scale channel-augmented teacher-student 3D detection pipeline."""

__version__ = "0.1.0"
