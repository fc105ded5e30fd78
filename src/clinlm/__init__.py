"""Desk-scale clinical language modeling toolkit.

Subpackages cover the full path from raw note corpora to evaluated
task models: corpus filtering and patient-wise splitting (corpus),
wordpiece vocabulary training and compression analytics (wordpiece),
the settings classes and every rule they are held to (settings), a
transformer encoder with exact gradients (encoder), masked-LM
pretraining (pretrain), task fine-tuning (finetune), span and
classification metrics (metrics), and a numeric clinical-inference
probe suite (probe).
"""

__version__ = "0.1.0"
